//! Homomorphism matching for GFD reasoning.
//!
//! The paper's reasoning algorithms spend nearly all their time finding
//! homomorphic matches of graph patterns inside canonical graphs (§IV-C:
//! "matching dominates the cost"). This crate provides:
//!
//! * [`plan::MatchPlan`] — selectivity-ordered, connectivity-preserving
//!   variable orderings (the VF2-style expansion order);
//! * [`search::HomSearch`] — the resumable backtracking matcher with
//!   deadline interruption and shallowest-frontier **work-unit splitting**;
//! * [`brute`] — an exhaustive oracle for tests.

#![warn(missing_docs)]

pub mod brute;
pub mod plan;
pub mod search;

pub use plan::{Anchor, AnchorDir, IntersectStrategy, MatchPlan, PlanStep, BITSET_ANCHOR_DEGREE};
pub use search::{
    count_matches, find_all_matches, for_each_match, has_match, intersect_slices_bitset,
    intersect_slices_two_pointer, HomSearch, Match, RunOutcome, SearchLimits,
    BITSET_MIN_CANDIDATES,
};

#[cfg(test)]
mod proptests {
    use crate::brute::brute_force_matches;
    use crate::search::find_all_matches;
    use gfd_graph::{Graph, LabelId, LabelIndex, NodeId, Pattern};
    use proptest::prelude::*;

    /// Strategy: a small random labelled graph.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        // nodes: 1..6 labels out of 3; edges: subset of pairs with labels
        // out of 2.
        (1usize..6).prop_flat_map(|n| {
            let labels = proptest::collection::vec(1u32..4, n);
            let edges = proptest::collection::vec(((0..n), 1u32..3, (0..n)), 0..(n * n).min(12));
            (labels, edges).prop_map(move |(labels, edges)| {
                let mut g = Graph::new();
                for l in labels {
                    g.add_node(LabelId(l));
                }
                for (s, l, d) in edges {
                    g.add_edge(NodeId::new(s), LabelId(l), NodeId::new(d));
                }
                g
            })
        })
    }

    /// Strategy: a small random pattern (labels may be wildcard = 0).
    fn arb_pattern() -> impl Strategy<Value = Pattern> {
        (1usize..4).prop_flat_map(|k| {
            let labels = proptest::collection::vec(0u32..4, k);
            let edges = proptest::collection::vec(((0..k), 0u32..3, (0..k)), 0..(k * k).min(6));
            (labels, edges).prop_map(move |(labels, edges)| {
                let mut p = Pattern::new();
                for l in labels {
                    p.add_anon_node(LabelId(l));
                }
                for (s, l, d) in edges {
                    p.add_edge(
                        gfd_graph::VarId::new(s),
                        LabelId(l),
                        gfd_graph::VarId::new(d),
                    );
                }
                p
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The backtracking matcher finds exactly the brute-force match set.
        #[test]
        fn matcher_agrees_with_brute_force(g in arb_graph(), p in arb_pattern()) {
            let idx = LabelIndex::build(&g);
            let mut fast: Vec<Vec<NodeId>> =
                find_all_matches(&g, &idx, &p).iter().map(|m| m.to_vec()).collect();
            let mut brute: Vec<Vec<NodeId>> =
                brute_force_matches(&g, &p).iter().map(|m| m.to_vec()).collect();
            fast.sort();
            brute.sort();
            // No dedup: the matcher must emit each match exactly once.
            prop_assert_eq!(fast, brute);
        }

        /// Pivoted searches partition the full match set by pivot value.
        #[test]
        fn pivoting_partitions_matches(g in arb_graph(), p in arb_pattern()) {
            use crate::plan::MatchPlan;
            use crate::search::{HomSearch, SearchLimits};
            use std::ops::ControlFlow;
            let idx = LabelIndex::build(&g);
            let plan = MatchPlan::build(&p, Some(gfd_graph::VarId::new(0)), Some(&idx));
            let mut collected: Vec<Vec<NodeId>> = Vec::new();
            for z in g.nodes() {
                let mut s = HomSearch::new(&g, &idx, &p, &plan);
                s.reset(&[z]);
                s.run(|m| { collected.push(m.to_vec()); ControlFlow::Continue(()) },
                      SearchLimits::none());
            }
            let mut brute: Vec<Vec<NodeId>> =
                brute_force_matches(&g, &p).iter().map(|m| m.to_vec()).collect();
            collected.sort();
            brute.sort();
            prop_assert_eq!(collected, brute);
        }
    }
}
