//! Property tests pinning the frozen CSR topology to the builder
//! (`Vec`-scan) adjacency it is derived from: every probe the matching
//! hot path performs must return identical results on both
//! representations, for arbitrary graphs including parallel edges with
//! distinct labels and wildcard-labelled canonical nodes/edges. The
//! builder's own rows are pinned to a naive `Vec`-per-node reference
//! (`row_oracle_*`).

#![cfg(test)]

use crate::graph::{Adj, Graph};
use crate::ids::{AttrId, LabelId, NodeId};
use crate::value::{ValueId, ValueTable};
use proptest::prelude::*;

/// Random graphs over up to 10 nodes, node labels 0..4 (0 is the
/// wildcard, as in canonical graphs), edge labels 0..4, with enough edge
/// density to produce parallel edges under distinct labels and
/// self-loops.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..10).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..4, n);
        let edges = proptest::collection::vec(((0..n), 0u32..4, (0..n)), 0..(3 * n));
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

/// The Vec-scan reference for an anchored expansion candidate list: the
/// label-matching neighbors of `v`, deduplicated, ascending.
fn vec_scan_candidates(adjacency: &[Adj], label: LabelId) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = adjacency
        .iter()
        .filter(|(l, _)| label.pattern_matches(*l))
        .map(|&(_, n)| n)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `has_edge` / `has_edge_pattern` agree with the builder scans for
    /// every (src, label, dst) triple, wildcard included.
    #[test]
    fn csr_edge_probes_match_vec_scan(g in arb_graph()) {
        let csr = g.freeze();
        for src in g.nodes() {
            for dst in g.nodes() {
                for l in 0u32..5 {
                    let l = LabelId(l);
                    prop_assert_eq!(csr.has_edge(src, l, dst), g.has_edge(src, l, dst));
                    prop_assert_eq!(
                        csr.has_edge_pattern(src, l, dst),
                        g.has_edge_pattern(src, l, dst)
                    );
                }
            }
        }
    }

    /// Per-node neighbor slices hold exactly the builder adjacency,
    /// sorted by (label, node) with strictly increasing node ids inside
    /// each label sub-slice.
    #[test]
    fn csr_neighbor_slices_match_vec_scan(g in arb_graph()) {
        let csr = g.freeze();
        for v in g.nodes() {
            let mut expected = g.out_edges(v).to_vec();
            expected.sort_unstable();
            prop_assert_eq!(csr.out(v), &expected[..]);
            prop_assert!(csr.out(v).windows(2).all(|w| w[0] < w[1]));

            let mut expected = g.in_edges(v).to_vec();
            expected.sort_unstable();
            prop_assert_eq!(csr.inn(v), &expected[..]);

            for l in 0u32..5 {
                let l = LabelId(l);
                let sub = csr.out_with_label(v, l);
                prop_assert!(sub.iter().all(|&(sl, _)| sl == l));
                prop_assert_eq!(
                    sub.len(),
                    g.out_edges(v).iter().filter(|&&(sl, _)| sl == l).count()
                );
                prop_assert!(sub.windows(2).all(|w| w[0].1 < w[1].1));
            }
        }
    }

    /// Anchored-expansion candidate lists from the label sub-slices are
    /// identical to the Vec-scan filter over the whole adjacency — the
    /// property `HomSearch`'s frame construction relies on.
    #[test]
    fn csr_candidate_slices_match_vec_scan(g in arb_graph()) {
        let csr = g.freeze();
        for v in g.nodes() {
            for l in 0u32..5 {
                let l = LabelId(l);
                let mut from_csr: Vec<NodeId> =
                    csr.out_matching(v, l).iter().map(|&(_, n)| n).collect();
                from_csr.sort_unstable();
                from_csr.dedup();
                prop_assert_eq!(from_csr, vec_scan_candidates(g.out_edges(v), l));

                let mut from_csr: Vec<NodeId> =
                    csr.in_matching(v, l).iter().map(|&(_, n)| n).collect();
                from_csr.sort_unstable();
                from_csr.dedup();
                prop_assert_eq!(from_csr, vec_scan_candidates(g.in_edges(v), l));
            }
        }
    }

    /// Frequency statistics count exactly the edges the builder holds.
    #[test]
    fn csr_frequency_stats_match_edge_counts(g in arb_graph()) {
        let csr = g.freeze();
        for l in 1u32..5 {
            let l = LabelId(l);
            prop_assert_eq!(
                csr.edge_label_frequency(l),
                g.edges().filter(|&(_, el, _)| el == l).count()
            );
            for nl in 1u32..5 {
                let nl = LabelId(nl);
                prop_assert_eq!(
                    csr.out_pair_frequency(l, nl),
                    g.edges()
                        .filter(|&(_, el, d)| el == l && g.label(d) == nl)
                        .count()
                );
                prop_assert_eq!(
                    csr.in_pair_frequency(l, nl),
                    g.edges()
                        .filter(|&(s, el, _)| el == l && g.label(s) == nl)
                        .count()
                );
            }
        }
        prop_assert_eq!(csr.edge_label_frequency(LabelId::WILDCARD), g.edge_count());
    }
}

/// Random delta streams over the graph: sequences of node inserts, edge
/// inserts (duplicates included) and edge deletes (absent edges
/// included), exercising tombstones, resurrections and delta nodes.
fn arb_delta_ops() -> impl Strategy<Value = Vec<(u8, usize, u32, usize)>> {
    proptest::collection::vec((0u8..3, 0usize..12, 0u32..4, 0usize..12), 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// After an arbitrary update stream, every probe of the delta overlay
    /// equals the same probe on a fresh freeze of the mutated builder —
    /// the invariant the incremental detection engine stands on.
    #[test]
    fn delta_overlay_agrees_with_refreeze(g in arb_graph(), ops in arb_delta_ops()) {
        use crate::view::{Dir, TopologyView};
        let mut g = g;
        let mut view = crate::delta::DeltaCsr::new(g.freeze());
        for (kind, s, l, d) in ops {
            match kind {
                0 => {
                    let id = g.add_node(LabelId(l));
                    prop_assert_eq!(view.add_node(), id);
                }
                _ => {
                    let n = g.node_count();
                    let (src, dst) = (NodeId::new(s % n), NodeId::new(d % n));
                    let label = LabelId(l);
                    if kind == 1 {
                        let inserted = view.insert_edge(src, label, dst);
                        prop_assert_eq!(inserted, !g.has_edge(src, label, dst));
                        g.add_edge(src, label, dst);
                    } else {
                        let removed = view.remove_edge(src, label, dst);
                        prop_assert_eq!(removed, g.remove_edge(src, label, dst));
                    }
                }
            }
        }
        let csr = g.freeze();
        prop_assert_eq!(TopologyView::node_count(&view), g.node_count());
        prop_assert_eq!(TopologyView::edge_count(&view), g.edge_count());
        for v in g.nodes() {
            for dir in [Dir::Out, Dir::In] {
                for l in 0u32..5 {
                    let l = LabelId(l);
                    prop_assert_eq!(
                        view.matching_len(v, dir, l),
                        csr.matching_len(v, dir, l)
                    );
                    let mut got = Vec::new();
                    view.for_each_matching(v, dir, l, |a| got.push(a));
                    let mut want = Vec::new();
                    csr.for_each_matching(v, dir, l, |a| want.push(a));
                    prop_assert_eq!(got, want);
                }
            }
            for u in g.nodes() {
                for l in 0u32..5 {
                    let l = LabelId(l);
                    prop_assert_eq!(view.has_edge(v, l, u), csr.has_edge(v, l, u));
                    prop_assert_eq!(
                        view.has_edge_pattern(v, l, u),
                        csr.has_edge_pattern(v, l, u)
                    );
                }
            }
        }
    }

    /// `Graph::remove_edge` inverts `add_edge` and keeps both adjacency
    /// directions and the edge count consistent.
    #[test]
    fn remove_edge_inverts_add_edge(g in arb_graph()) {
        let mut g = g;
        let edges: Vec<_> = g.edges().collect();
        for &(s, l, d) in &edges {
            prop_assert!(g.remove_edge(s, l, d));
            prop_assert!(!g.has_edge(s, l, d));
            prop_assert!(!g.remove_edge(s, l, d), "double delete must fail");
        }
        prop_assert_eq!(g.edge_count(), 0);
        for v in g.nodes() {
            prop_assert!(g.out_edges(v).is_empty());
            prop_assert!(g.in_edges(v).is_empty());
        }
    }
}

/// Regression: duplicate parallel edges with distinct labels must appear
/// once per label in the CSR and produce one candidate under a wildcard
/// probe (the sorted-merge dedup case), while identical re-added triples
/// stay deduplicated by the builder.
#[test]
fn parallel_edges_with_distinct_labels_regression() {
    let mut g = Graph::new();
    let t = LabelId(1);
    let a = g.add_node(t);
    let b = g.add_node(t);
    let e1 = LabelId(2);
    let e2 = LabelId(3);
    g.add_edge(a, e1, b);
    g.add_edge(a, e2, b);
    g.add_edge(a, e1, b); // identical triple: builder ignores it
    let csr = g.freeze();

    assert_eq!(csr.edge_count(), 2);
    assert_eq!(csr.out(a), &[(e1, b), (e2, b)]);
    assert_eq!(csr.out_with_label(a, e1), &[(e1, b)]);
    assert_eq!(csr.out_with_label(a, e2), &[(e2, b)]);
    assert!(csr.has_edge(a, e1, b));
    assert!(csr.has_edge(a, e2, b));
    assert!(!csr.has_edge(b, e1, a));
    // Wildcard probe sees b twice across label groups; dedup must reduce
    // the candidate list to one entry.
    let mut cands: Vec<NodeId> = csr
        .out_matching(a, LabelId::WILDCARD)
        .iter()
        .map(|&(_, n)| n)
        .collect();
    cands.sort_unstable();
    cands.dedup();
    assert_eq!(cands, vec![b]);
    assert!(csr.has_edge_pattern(a, LabelId::WILDCARD, b));
}

/// The naive reference for [`Graph`]'s rows: one `Vec` per node and
/// direction in insertion order, and one sorted `(attr, value)` `Vec` per
/// node.
#[derive(Default)]
struct NaiveRows {
    labels: Vec<LabelId>,
    out: Vec<Vec<Adj>>,
    inn: Vec<Vec<Adj>>,
    attrs: Vec<Vec<(AttrId, ValueId)>>,
}

impl NaiveRows {
    fn add_node(&mut self, label: LabelId) {
        self.labels.push(label);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.attrs.push(Vec::new());
    }

    fn add_edge(&mut self, s: NodeId, l: LabelId, d: NodeId) {
        if !self.out[s.index()].contains(&(l, d)) {
            self.out[s.index()].push((l, d));
            self.inn[d.index()].push((l, s));
        }
    }

    fn remove_edge(&mut self, s: NodeId, l: LabelId, d: NodeId) -> bool {
        let Some(i) = self.out[s.index()].iter().position(|&e| e == (l, d)) else {
            return false;
        };
        self.out[s.index()].remove(i);
        let j = self.inn[d.index()].iter().position(|&e| e == (l, s));
        self.inn[d.index()].remove(j.unwrap());
        true
    }

    fn set_attr(&mut self, v: NodeId, a: AttrId, value: ValueId) {
        let row = &mut self.attrs[v.index()];
        match row.binary_search_by_key(&a, |&(a, _)| a) {
            Ok(i) => row[i].1 = value,
            Err(i) => row.insert(i, (a, value)),
        }
    }
}

/// Mutation sequences over a graph of one to six starting nodes: node
/// inserts, edge inserts (duplicates and self-loops included, on few
/// nodes so rows grow past any inline capacity), edge deletes (absent
/// edges included) and attribute writes (overwrites included).
fn arb_row_ops() -> impl Strategy<Value = (usize, Vec<(u8, usize, u32, usize)>)> {
    (
        1usize..7,
        proptest::collection::vec((0u8..6, 0usize..8, 0u32..4, 0usize..8), 0..60),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `Graph` holds what the naive per-node `Vec` rows hold after every
    /// mutation: both adjacency directions in insertion order, the
    /// attributes in attribute-id order, every point probe and the
    /// counts.
    #[test]
    fn row_oracle_graph_matches_naive_rows(case in arb_row_ops()) {
        let (start, ops) = case;
        let mut g = Graph::new();
        let mut naive = NaiveRows::default();
        for i in 0..start {
            g.add_node(LabelId(i as u32 % 3));
            naive.add_node(LabelId(i as u32 % 3));
        }
        for (kind, s, l, d) in ops {
            let n = g.node_count();
            let (src, dst, label) = (NodeId::new(s % n), NodeId::new(d % n), LabelId(l));
            match kind {
                0 => {
                    g.add_node(label);
                    naive.add_node(label);
                }
                1 | 2 => {
                    g.add_edge(src, label, dst);
                    naive.add_edge(src, label, dst);
                }
                3 => {
                    prop_assert_eq!(
                        g.remove_edge(src, label, dst),
                        naive.remove_edge(src, label, dst)
                    );
                }
                _ => {
                    let (attr, value) = (AttrId(l + d as u32 % 2), ValueTable::intern_int(s as i64));
                    g.set_attr_id(dst, attr, value);
                    naive.set_attr(dst, attr, value);
                }
            }
            prop_assert_eq!(g.node_count(), naive.labels.len());
            for v in g.nodes() {
                prop_assert_eq!(g.label(v), naive.labels[v.index()]);
                prop_assert_eq!(g.out_edges(v), &naive.out[v.index()][..]);
                prop_assert_eq!(g.in_edges(v), &naive.inn[v.index()][..]);
            }
        }
        let edges: usize = naive.out.iter().map(Vec::len).sum();
        prop_assert_eq!(g.edge_count(), edges);
        prop_assert_eq!(g.edges().count(), edges);
        let attrs: usize = naive.attrs.iter().map(Vec::len).sum();
        prop_assert_eq!(g.attr_count(), attrs);
        prop_assert_eq!(g.size(), g.node_count() + edges + attrs);
        for v in g.nodes() {
            let row = &naive.attrs[v.index()];
            prop_assert_eq!(g.attrs(v).collect::<Vec<_>>(), row.clone());
            for a in 0u32..6 {
                let want = row.iter().find(|&&(ra, _)| ra == AttrId(a)).map(|&(_, x)| x);
                prop_assert_eq!(g.attr(v, AttrId(a)), want);
            }
            for u in g.nodes() {
                for l in 0u32..4 {
                    let want = naive.out[v.index()].contains(&(LabelId(l), u));
                    prop_assert_eq!(g.has_edge(v, LabelId(l), u), want);
                }
            }
        }
    }
}
