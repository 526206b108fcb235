//! Property-based round-trip tests for the interchange formats.

#![cfg(test)]

use crate::json::{graph_from_json, graph_to_json};
use gfd_graph::{Graph, NodeId, Value, Vocab};
use proptest::prelude::*;

/// Random graphs with string-named labels/attrs drawn from small pools,
/// and all three value types.
fn arb_named_graph() -> impl Strategy<Value = (Graph, Vocab)> {
    let label_pool = ["person", "place", "thing", "_"];
    let attr_pool = ["age", "name", "flag"];
    (1usize..7).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0usize..label_pool.len(), n);
        let edges = proptest::collection::vec(((0..n), 0usize..2, (0..n)), 0..(2 * n));
        let attrs = proptest::collection::vec(
            proptest::collection::vec(
                (
                    0usize..attr_pool.len(),
                    prop_oneof![
                        (-5i64..5).prop_map(Value::Int),
                        any::<bool>().prop_map(Value::Bool),
                        "[a-z ]{0,6}".prop_map(|s| Value::str(&s)),
                    ],
                ),
                0..3,
            ),
            n,
        );
        (labels, edges, attrs).prop_map(move |(labels, edges, attrs)| {
            let mut vocab = Vocab::new();
            let edge_labels = [vocab.label("knows"), vocab.label("near")];
            let mut g = Graph::new();
            for l in &labels {
                g.add_node(vocab.label(label_pool[*l]));
            }
            for (s, l, d) in edges {
                g.add_edge(NodeId::new(s), edge_labels[l], NodeId::new(d));
            }
            for (i, node_attrs) in attrs.iter().enumerate() {
                for (a, v) in node_attrs {
                    g.set_attr(NodeId::new(i), vocab.attr(attr_pool[*a]), v.clone());
                }
            }
            (g, vocab)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// JSON round trips preserve structure, labels and attribute values
    /// exactly (modulo vocabulary renumbering).
    #[test]
    fn graph_json_round_trip((g, vocab) in arb_named_graph()) {
        let json = graph_to_json(&g, &vocab);
        let mut vocab2 = Vocab::new();
        let g2 = graph_from_json(&json, &mut vocab2).unwrap();
        prop_assert_eq!(g2.node_count(), g.node_count());
        prop_assert_eq!(g2.edge_count(), g.edge_count());
        prop_assert_eq!(g2.attr_count(), g.attr_count());
        for v in g.nodes() {
            // Labels match by *name*.
            prop_assert_eq!(
                vocab.label_name(g.label(v)),
                vocab2.label_name(g2.label(v))
            );
            // Attributes match by name and value.
            for (a, val) in g.attrs(v) {
                let name = vocab.attr_name(a);
                let a2 = vocab2.attr(name);
                prop_assert_eq!(g2.attr(v, a2), Some(val), "attr {} diverged", name);
            }
        }
        for (s, l, d) in g.edges() {
            let l2 = vocab2.label(vocab.label_name(l));
            prop_assert!(g2.has_edge(s, l2, d));
        }
        // Wildcards stay wildcards.
        for v in g.nodes() {
            prop_assert_eq!(g.label(v).is_wildcard(), g2.label(v).is_wildcard());
        }
    }

    /// Serialization is deterministic: same graph, same bytes.
    #[test]
    fn graph_json_is_deterministic((g, vocab) in arb_named_graph()) {
        prop_assert_eq!(graph_to_json(&g, &vocab), graph_to_json(&g, &vocab));
    }
}

mod edgelist_props {
    use super::*;
    use crate::edgelist::{load_edge_list, EdgeListOptions};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Loading an edge list yields exactly the (deduplicated) edge
        /// multiset, regardless of id sparsity and ordering.
        #[test]
        fn edge_list_preserves_edges(
            pairs in proptest::collection::vec((0u64..50, 0u64..50), 1..20),
        ) {
            let src: String = pairs
                .iter()
                .map(|(a, b)| format!("{a} {b}\n"))
                .collect();
            let mut vocab = Vocab::new();
            let (g, ids) =
                load_edge_list(&src, &mut vocab, &EdgeListOptions::default()).unwrap();
            // Every distinct endpoint got a node.
            let mut endpoints: Vec<u64> =
                pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            endpoints.sort();
            endpoints.dedup();
            prop_assert_eq!(g.node_count(), endpoints.len());
            // Every pair is present as an edge.
            let e = vocab.label("edge");
            for &(a, b) in &pairs {
                prop_assert!(g.has_edge(ids[&a], e, ids[&b]));
            }
            // Edge count equals the deduplicated pair count.
            let mut dedup = pairs.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(g.edge_count(), dedup.len());
        }
    }
}

/// Fuzz the text readers: arbitrary input must produce `Ok` or a
/// structured `Err`, never a panic (DESIGN.md §11). Two input shapes:
/// fully arbitrary text, and "near-miss" corruptions of valid documents
/// (the kind a torn write or fat-fingered edit actually produces), which
/// reach much deeper into the parsers than random bytes do.
mod fuzz_props {
    use super::*;
    use crate::checkpoint::parse_checkpoint;
    use crate::deltalog::{parse_delta_log, parse_delta_log_lenient};

    /// Lines assembled from delta-log-ish tokens: mostly valid fragments
    /// with ids, values and keywords in wrong slots.
    fn arb_deltaish() -> impl Strategy<Value = String> {
        const POOL: [&str; 9] = [
            "batch", "node", "edge", "del", "attr", "person", "#", "=", "\"",
        ];
        let token = prop_oneof![
            (0usize..POOL.len()).prop_map(|i| POOL[i].to_string()),
            (0u64..20).prop_map(|n| n.to_string()),
            (0u64..5).prop_map(|n| format!("a{n}=1")),
            "[a-z=\"]{0,4}".prop_map(|s| s),
        ];
        proptest::collection::vec(proptest::collection::vec(token, 0..6), 0..12).prop_map(|lines| {
            lines
                .iter()
                .map(|toks| toks.join(" "))
                .collect::<Vec<_>>()
                .join("\n")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The strict delta-log reader is panic-free on arbitrary text.
        #[test]
        fn delta_log_never_panics(src in "\\PC*") {
            let mut vocab = Vocab::new();
            let _ = parse_delta_log(&src, &mut vocab);
        }

        /// …and on token-soup near-misses, where every keyword arm runs.
        #[test]
        fn delta_log_never_panics_on_token_soup(src in arb_deltaish()) {
            let mut vocab = Vocab::new();
            let _ = parse_delta_log(&src, &mut vocab);
        }

        /// The lenient reader is *total*: any input yields batches plus a
        /// skip list, and what it keeps agrees with a strict re-parse of
        /// its own rendering (the salvaged log is well-formed).
        #[test]
        fn lenient_delta_log_is_total_and_salvage_is_replayable(src in arb_deltaish()) {
            let mut vocab = Vocab::new();
            let lenient = parse_delta_log_lenient(&src, &mut vocab, None).unwrap();
            let rendered = crate::delta_log_to_string(&lenient.batches, &vocab);
            let strict = parse_delta_log(&rendered, &mut vocab).unwrap();
            prop_assert_eq!(strict.len(), lenient.batches.len());
        }

        /// The checkpoint reader is panic-free on arbitrary text…
        #[test]
        fn checkpoint_never_panics(src in "\\PC*") {
            let mut vocab = Vocab::new();
            let _ = parse_checkpoint(&src, &mut vocab);
        }

        /// …and on single-point corruptions of a valid checkpoint:
        /// truncation, line deletion and byte edits all yield a
        /// structured error or a still-consistent parse — never a panic.
        #[test]
        fn corrupted_checkpoint_never_panics(
            cut in 0usize..400,
            drop_line in 0usize..16,
            flip in 0usize..400,
        ) {
            let mut vocab = Vocab::new();
            let mut g = Graph::new();
            let t = vocab.label("t");
            let a = g.add_node(t);
            let b = g.add_node(t);
            g.add_edge(a, vocab.label("e"), b);
            g.set_attr(a, vocab.attr("v"), Value::Int(1));
            let src = crate::checkpoint_to_string(
                &crate::Checkpoint { batches_applied: 2, graph: g, violations: vec![] },
                &vocab,
            );

            let truncated: String = src.chars().take(cut % (src.len() + 1)).collect();
            let _ = parse_checkpoint(&truncated, &mut vocab);

            let dropped: String = src
                .lines()
                .enumerate()
                .filter(|(i, _)| *i != drop_line)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let _ = parse_checkpoint(&dropped, &mut vocab);

            let mut bytes: Vec<char> = src.chars().collect();
            let i = flip % bytes.len();
            bytes[i] = 'Z';
            let flipped: String = bytes.into_iter().collect();
            let _ = parse_checkpoint(&flipped, &mut vocab);
        }
    }
}
