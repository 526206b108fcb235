//! Frozen CSR (compressed sparse row) topology with label-sorted
//! adjacency — the query-optimized graph representation the matching hot
//! path runs on.
//!
//! [`Graph`] stays the mutable *builder* representation (per-node
//! adjacency rows in insertion order, cheap to append to);
//! [`CsrTopology`] is built once per finished graph ([`Graph::freeze`],
//! or implicitly by [`crate::LabelIndex::build`]) and never mutated.
//! Out- and in-adjacency live in flat `(offsets, Box<[Adj]>)` arrays and
//! each node's neighbor slice is sorted by `(edge label, node id)`, which
//! buys three things (complexity table in DESIGN.md §2):
//!
//! * **edge probes** (`has_edge`, concrete-label `has_edge_pattern`)
//!   become binary searches: `O(log d)` instead of the builder's `O(d)`
//!   scan;
//! * **anchored expansion** fetches the per-`(node, label)` sub-slice in
//!   `O(log d)` via `partition_point` and iterates exactly the `k`
//!   label-matching neighbors, instead of filtering the full list;
//! * within a label sub-slice node ids are **strictly increasing**, so
//!   multi-anchor intersection and candidate dedup are sorted merges
//!   instead of `Vec::contains` scans.
//!
//! The builder also tallies per-label and per-`(edge label, endpoint
//! label)` frequencies, which the match planner uses as real selectivity
//! statistics instead of node-label counts alone.

use crate::graph::{Adj, Graph};
use crate::ids::{LabelId, NodeId};
use rustc_hash::FxHashMap;

/// The frozen, query-optimized topology of a [`Graph`].
///
/// Construction is `O(|V| + |E| log d)`; the structure holds no
/// attribute data and stays valid as long as the source graph's
/// *topology* is unchanged (attribute updates are fine — enforcement
/// mutates attributes, never edges).
#[derive(Clone, Debug, Default)]
pub struct CsrTopology {
    /// `out_adj[out_offsets[v] .. out_offsets[v + 1]]` are `v`'s
    /// out-edges sorted by `(label, target)`.
    out_offsets: Box<[u32]>,
    out_adj: Box<[Adj]>,
    /// Same layout for in-edges, `(label, source)`-sorted.
    in_offsets: Box<[u32]>,
    in_adj: Box<[Adj]>,
    /// Directed edge count per edge label, sorted by label.
    label_counts: Box<[(LabelId, u32)]>,
    /// Edge count per `(edge label, target label)`.
    out_pairs: FxHashMap<(LabelId, LabelId), u32>,
    /// Edge count per `(edge label, source label)`.
    in_pairs: FxHashMap<(LabelId, LabelId), u32>,
    edge_count: usize,
    /// The source graph's [`Graph::topology_version`] at freeze time.
    /// [`CsrTopology::assert_fresh`] compares it against the live graph to
    /// fail fast on post-freeze topology mutation.
    frozen_version: u64,
}

/// The `(label, ·)`-sub-slice of one node's sorted adjacency. Shared
/// with the delta overlay, which keeps its per-node add/tombstone
/// vectors in the same `(label, node)` order.
#[inline]
pub(crate) fn label_slice(adj: &[Adj], label: LabelId) -> &[Adj] {
    let lo = adj.partition_point(|&(l, _)| l < label);
    let hi = lo + adj[lo..].partition_point(|&(l, _)| l == label);
    &adj[lo..hi]
}

impl CsrTopology {
    /// Freeze `graph`'s topology. Equivalent to [`Graph::freeze`].
    pub fn build(graph: &Graph) -> Self {
        let n = graph.node_count();
        assert!(
            graph.edge_count() <= u32::MAX as usize,
            "CSR offsets are u32: graph has too many edges"
        );

        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_adj = Vec::with_capacity(graph.edge_count());
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_adj = Vec::with_capacity(graph.edge_count());
        let mut label_counts: FxHashMap<LabelId, u32> = FxHashMap::default();
        let mut out_pairs: FxHashMap<(LabelId, LabelId), u32> = FxHashMap::default();
        let mut in_pairs: FxHashMap<(LabelId, LabelId), u32> = FxHashMap::default();

        out_offsets.push(0u32);
        in_offsets.push(0u32);
        for v in graph.nodes() {
            let start = out_adj.len();
            out_adj.extend_from_slice(graph.out_edges(v));
            out_adj[start..].sort_unstable();
            out_offsets.push(out_adj.len() as u32);

            let start = in_adj.len();
            in_adj.extend_from_slice(graph.in_edges(v));
            in_adj[start..].sort_unstable();
            in_offsets.push(in_adj.len() as u32);
        }
        for (src, label, dst) in graph.edges() {
            *label_counts.entry(label).or_insert(0) += 1;
            *out_pairs.entry((label, graph.label(dst))).or_insert(0) += 1;
            *in_pairs.entry((label, graph.label(src))).or_insert(0) += 1;
        }
        let mut label_counts: Vec<(LabelId, u32)> = label_counts.into_iter().collect();
        label_counts.sort_unstable();

        CsrTopology {
            out_offsets: out_offsets.into_boxed_slice(),
            out_adj: out_adj.into_boxed_slice(),
            in_offsets: in_offsets.into_boxed_slice(),
            in_adj: in_adj.into_boxed_slice(),
            label_counts: label_counts.into_boxed_slice(),
            out_pairs,
            in_pairs,
            edge_count: graph.edge_count(),
            frozen_version: graph.topology_version(),
        }
    }

    /// The source graph's topology version this view was frozen at.
    #[inline]
    pub fn frozen_version(&self) -> u64 {
        self.frozen_version
    }

    /// Debug-assert that `graph`'s topology has not changed since this
    /// view was frozen. DESIGN.md §1 documents the staleness hazard —
    /// edges added after `freeze()`/`LabelIndex::build` are invisible to
    /// probes; this turns the silent wrong answer into an immediate panic
    /// on the matching entry points (debug builds only).
    #[inline]
    pub fn assert_fresh(&self, graph: &Graph) {
        debug_assert_eq!(
            self.frozen_version,
            graph.topology_version(),
            "stale frozen topology: the graph was mutated after freeze() / \
             LabelIndex::build (frozen at version {}, graph now at {}); \
             re-freeze before matching",
            self.frozen_version,
            graph.topology_version(),
        );
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len().saturating_sub(1)
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Out-edges of `v` as `(label, target)`, sorted by `(label, target)`.
    #[inline]
    pub fn out(&self, v: NodeId) -> &[Adj] {
        let i = v.index();
        &self.out_adj[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// In-edges of `v` as `(label, source)`, sorted by `(label, source)`.
    #[inline]
    pub fn inn(&self, v: NodeId) -> &[Adj] {
        let i = v.index();
        &self.in_adj[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// The out-edges of `v` labelled exactly `label`: a sub-slice with
    /// strictly increasing target ids, located in `O(log d)`.
    #[inline]
    pub fn out_with_label(&self, v: NodeId, label: LabelId) -> &[Adj] {
        label_slice(self.out(v), label)
    }

    /// The in-edges of `v` labelled exactly `label`.
    #[inline]
    pub fn in_with_label(&self, v: NodeId, label: LabelId) -> &[Adj] {
        label_slice(self.inn(v), label)
    }

    /// Out-edges of `v` matched by the (possibly wildcard) pattern label:
    /// the full slice for the wildcard, the label sub-slice otherwise.
    #[inline]
    pub fn out_matching(&self, v: NodeId, label: LabelId) -> &[Adj] {
        if label.is_wildcard() {
            self.out(v)
        } else {
            self.out_with_label(v, label)
        }
    }

    /// In-edges of `v` matched by the (possibly wildcard) pattern label.
    #[inline]
    pub fn in_matching(&self, v: NodeId, label: LabelId) -> &[Adj] {
        if label.is_wildcard() {
            self.inn(v)
        } else {
            self.in_with_label(v, label)
        }
    }

    /// True iff the edge `src --label--> dst` exists: a binary search of
    /// the smaller endpoint slice.
    pub fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        let o = self.out(src);
        let i = self.inn(dst);
        if o.len() <= i.len() {
            o.binary_search(&(label, dst)).is_ok()
        } else {
            i.binary_search(&(label, src)).is_ok()
        }
    }

    /// True iff an edge `src --l--> dst` exists whose label is matched by
    /// the (possibly wildcard) pattern label `label`.
    pub fn has_edge_pattern(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        if !label.is_wildcard() {
            return self.has_edge(src, label, dst);
        }
        // Wildcard: any label connects them; scan the smaller slice.
        let o = self.out(src);
        let i = self.inn(dst);
        if o.len() <= i.len() {
            o.iter().any(|&(_, d)| d == dst)
        } else {
            i.iter().any(|&(_, s)| s == src)
        }
    }

    /// How many directed edges carry `label` (all edges for the
    /// wildcard). `O(log |labels|)`.
    pub fn edge_label_frequency(&self, label: LabelId) -> usize {
        if label.is_wildcard() {
            return self.edge_count;
        }
        match self.label_counts.binary_search_by_key(&label, |&(l, _)| l) {
            Ok(i) => self.label_counts[i].1 as usize,
            Err(_) => 0,
        }
    }

    /// How many edges carry `edge_label` *and* end at a node labelled
    /// `dst_label` — the real frequency of the label pair an anchored
    /// `FromAnchor` expansion traverses. Wildcards fall back to the
    /// single-label counts.
    pub fn out_pair_frequency(&self, edge_label: LabelId, dst_label: LabelId) -> usize {
        if edge_label.is_wildcard() || dst_label.is_wildcard() {
            return self.edge_label_frequency(edge_label);
        }
        self.out_pairs
            .get(&(edge_label, dst_label))
            .map_or(0, |&c| c as usize)
    }

    /// How many edges carry `edge_label` and start at a node labelled
    /// `src_label` — the `ToAnchor` counterpart of
    /// [`CsrTopology::out_pair_frequency`].
    pub fn in_pair_frequency(&self, edge_label: LabelId, src_label: LabelId) -> usize {
        if edge_label.is_wildcard() || src_label.is_wildcard() {
            return self.edge_label_frequency(edge_label);
        }
        self.in_pairs
            .get(&(edge_label, src_label))
            .map_or(0, |&c| c as usize)
    }
}

impl Graph {
    /// Freeze the current topology into a [`CsrTopology`].
    ///
    /// Call once construction is finished; edges added afterwards are
    /// invisible to the frozen view (attribute updates are fine).
    pub fn freeze(&self) -> CsrTopology {
        CsrTopology::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Vocab;

    /// Graph with parallel edges under distinct labels, a self-loop and a
    /// high-degree hub.
    fn build_sample() -> (Graph, Vocab) {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e1 = v.label("e1");
        let e2 = v.label("e2");
        let mut g = Graph::new();
        let hub = g.add_node(t);
        g.add_edge(hub, e1, hub); // self-loop
        for i in 0..20 {
            let leaf = g.add_node(t);
            g.add_edge(hub, e1, leaf);
            if i % 2 == 0 {
                g.add_edge(hub, e2, leaf); // parallel edge, distinct label
            }
            if i % 3 == 0 {
                g.add_edge(leaf, e2, hub);
            }
        }
        (g, v)
    }

    #[test]
    fn csr_agrees_with_vec_scan_on_every_probe() {
        let (g, _) = build_sample();
        let csr = g.freeze();
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for src in g.nodes() {
            for dst in g.nodes() {
                for l in 0..4u32 {
                    let l = LabelId(l);
                    assert_eq!(
                        csr.has_edge(src, l, dst),
                        g.has_edge(src, l, dst),
                        "has_edge({src}, {l}, {dst})"
                    );
                    assert_eq!(
                        csr.has_edge_pattern(src, l, dst),
                        g.has_edge_pattern(src, l, dst),
                        "has_edge_pattern({src}, {l}, {dst})"
                    );
                }
            }
        }
    }

    #[test]
    fn slices_are_label_sorted_and_complete() {
        let (g, _) = build_sample();
        let csr = g.freeze();
        for v in g.nodes() {
            let out = csr.out(v);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            let mut expected: Vec<Adj> = g.out_edges(v).to_vec();
            expected.sort_unstable();
            assert_eq!(out, &expected[..]);

            let inn = csr.inn(v);
            assert!(inn.windows(2).all(|w| w[0] < w[1]));
            let mut expected: Vec<Adj> = g.in_edges(v).to_vec();
            expected.sort_unstable();
            assert_eq!(inn, &expected[..]);
        }
    }

    #[test]
    fn label_subslices_partition_the_adjacency() {
        let (g, mut v) = build_sample();
        let csr = g.freeze();
        let e1 = v.label("e1");
        let e2 = v.label("e2");
        let hub = NodeId::new(0);
        let s1 = csr.out_with_label(hub, e1);
        let s2 = csr.out_with_label(hub, e2);
        assert_eq!(s1.len() + s2.len(), csr.out(hub).len());
        assert!(s1.iter().all(|&(l, _)| l == e1));
        assert!(s2.iter().all(|&(l, _)| l == e2));
        // Node ids strictly increase inside a label sub-slice.
        assert!(s1.windows(2).all(|w| w[0].1 < w[1].1));
        assert!(s2.windows(2).all(|w| w[0].1 < w[1].1));
        // Absent label: empty slice, not a panic.
        assert!(csr.out_with_label(hub, v.label("nope")).is_empty());
    }

    #[test]
    fn matching_slices_respect_wildcards() {
        let (g, mut v) = build_sample();
        let csr = g.freeze();
        let hub = NodeId::new(0);
        assert_eq!(csr.out_matching(hub, LabelId::WILDCARD), csr.out(hub));
        assert_eq!(
            csr.out_matching(hub, v.label("e1")),
            csr.out_with_label(hub, v.label("e1"))
        );
        assert_eq!(csr.in_matching(hub, LabelId::WILDCARD), csr.inn(hub));
    }

    #[test]
    fn frequency_stats_count_real_edges() {
        let (g, mut v) = build_sample();
        let csr = g.freeze();
        let t = v.label("t");
        let e1 = v.label("e1");
        let e2 = v.label("e2");
        let e1_count = g.edges().filter(|&(_, l, _)| l == e1).count();
        let e2_count = g.edges().filter(|&(_, l, _)| l == e2).count();
        assert_eq!(csr.edge_label_frequency(e1), e1_count);
        assert_eq!(csr.edge_label_frequency(e2), e2_count);
        assert_eq!(csr.edge_label_frequency(LabelId::WILDCARD), g.edge_count());
        assert_eq!(csr.edge_label_frequency(v.label("never")), 0);
        // All endpoints are labelled `t`, so pair counts match label counts.
        assert_eq!(csr.out_pair_frequency(e1, t), e1_count);
        assert_eq!(csr.in_pair_frequency(e2, t), e2_count);
        assert_eq!(csr.out_pair_frequency(e1, v.label("u")), 0);
        // Wildcard on either side falls back to the label count.
        assert_eq!(csr.out_pair_frequency(LabelId::WILDCARD, t), g.edge_count());
        assert_eq!(csr.out_pair_frequency(e1, LabelId::WILDCARD), e1_count);
    }

    #[test]
    fn freeze_records_the_topology_version() {
        let (mut g, mut v) = build_sample();
        let csr = g.freeze();
        assert_eq!(csr.frozen_version(), g.topology_version());
        csr.assert_fresh(&g); // must not panic
                              // Attribute updates do not invalidate the frozen view.
        g.set_attr(NodeId::new(0), crate::AttrId::new(0), crate::Value::int(1));
        csr.assert_fresh(&g);
        // Edge insertion does.
        let t = v.label("t");
        let e9 = v.label("e9");
        let n = g.add_node(t);
        g.add_edge(NodeId::new(0), e9, n);
        assert_ne!(csr.frozen_version(), g.topology_version());
        // Re-freezing catches up.
        let csr2 = g.freeze();
        csr2.assert_fresh(&g);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale frozen topology")]
    fn stale_frozen_view_fails_fast_in_debug() {
        let (mut g, mut v) = build_sample();
        let csr = g.freeze();
        let e = v.label("late-edge");
        g.add_edge(NodeId::new(0), e, NodeId::new(1));
        csr.assert_fresh(&g);
    }

    #[test]
    fn empty_and_isolated_graphs_freeze() {
        let g = Graph::new();
        let csr = g.freeze();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);

        let mut v = Vocab::new();
        let mut g = Graph::new();
        let a = g.add_node(v.label("t"));
        let csr = g.freeze();
        assert!(csr.out(a).is_empty());
        assert!(csr.inn(a).is_empty());
        assert!(!csr.has_edge(a, v.label("e"), a));
    }
}
