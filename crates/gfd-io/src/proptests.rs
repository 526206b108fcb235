//! Property-based tests for the text formats: round trips and fuzzing.

#![cfg(test)]

use gfd_graph::{Graph, NodeId, Value, Vocab};
use proptest::prelude::*;

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

/// Checkpoint and delta-log round trips are the identity on string
/// values, whatever they hold: `#`, `"`, `\` and newline are escaped on
/// write and read back.
mod string_value_props {
    use super::*;
    use crate::{
        checkpoint_to_string, delta_log_to_string, parse_checkpoint, parse_delta_log_for,
        Checkpoint,
    };
    use gfd_graph::{DeltaBatch, ValueId};

    /// The characters the formats treat specially, or any character at
    /// all (the vendored regex subset has no `\PC`).
    fn arb_string() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-z#\"\\\n =]{0,8}",
            "[\u{0}-\u{7f}\u{80}-\u{d7ff}\u{e000}-\u{10ffff}]{0,8}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn string_values_survive_checkpoint_and_delta_log(
            values in proptest::collection::vec(arb_string(), 1..6),
        ) {
            let mut vocab = Vocab::new();
            let (t, s) = (vocab.label("t"), vocab.attr("s"));
            let mut batch = DeltaBatch::new();
            let mut graph = Graph::new();
            for (i, v) in values.iter().enumerate() {
                batch.add_node(t);
                batch.set_attr(NodeId::new(i), s, Value::str(v));
                let n = graph.add_node(t);
                graph.set_attr(n, s, Value::str(v));
            }
            let batches = vec![batch];
            let log = delta_log_to_string(&batches, &vocab);
            prop_assert_eq!(parse_delta_log_for(&log, &mut vocab, 0).unwrap(), batches);

            let ckpt = Checkpoint { batches_applied: 1, graph, violations: vec![] };
            let text = checkpoint_to_string(&ckpt, &vocab);
            let mut vocab2 = Vocab::new();
            let back = parse_checkpoint(&text, &mut vocab2).unwrap();
            let s2 = vocab2.attr("s");
            for (i, v) in values.iter().enumerate() {
                prop_assert_eq!(back.graph.attr(NodeId::new(i), s2), Some(ValueId::of(v.as_str())));
            }
            prop_assert_eq!(checkpoint_to_string(&back, &vocab2), text);
        }
    }
}
