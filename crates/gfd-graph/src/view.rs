//! The shared topology-view abstraction the matching hot path runs on.
//!
//! PR 1 froze graph topology into [`CsrTopology`]; streaming workloads
//! (DESIGN.md §8) add [`crate::DeltaCsr`], which layers per-node delta
//! adjacency over an immutable CSR base. The matcher must not care which
//! of the two it probes, so the three questions it asks — edge probes,
//! per-`(node, label)` adjacency size, and sorted adjacency iteration —
//! live behind [`TopologyView`]. [`MatchIndex`] bundles a view with the
//! label→candidates map the component-root frames draw from
//! ([`crate::LabelIndex`] for the frozen path, [`crate::DeltaIndex`] for
//! the overlay path).
//!
//! Iteration is callback-based (`try_for_matching`) rather than
//! slice-based because an overlay cannot hand out one contiguous slice:
//! the delta view emits the sorted merge of base sub-slice (minus
//! tombstones) and delta additions. On the pure CSR the callback walks
//! the same sub-slice the old code borrowed directly.

use crate::csr::CsrTopology;
use crate::graph::{Adj, Graph, LabelIndex};
use crate::ids::{LabelId, NodeId};
use std::ops::ControlFlow;

/// Which adjacency direction a probe traverses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Out-edges of the probed node.
    Out,
    /// In-edges of the probed node.
    In,
}

/// A queryable graph topology: the contract between the matcher and a
/// concrete representation (frozen CSR, or CSR + delta overlay).
///
/// All adjacency entries are `(edge label, other endpoint)` pairs and
/// every iteration order is ascending by `(label, node)` — within a
/// concrete label the endpoint ids strictly increase, which is what makes
/// sorted-merge intersection and adjacent dedup valid downstream.
pub trait TopologyView: Sync {
    /// Number of nodes visible in this view.
    fn node_count(&self) -> usize;

    /// Number of directed edges visible in this view.
    fn edge_count(&self) -> usize;

    /// True iff the edge `src --label--> dst` exists.
    fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool;

    /// True iff an edge `src --l--> dst` exists whose label is matched by
    /// the (possibly wildcard) pattern label `label`.
    fn has_edge_pattern(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool;

    /// Exact number of adjacency entries at `v` in direction `dir` whose
    /// label is matched by `label` (all entries for the wildcard). Used
    /// to pick the smallest anchor slice before iterating it.
    fn matching_len(&self, v: NodeId, dir: Dir, label: LabelId) -> usize;

    /// Visit the label-matching adjacency entries of `v` in ascending
    /// `(label, node)` order, stopping early when `f` breaks.
    fn try_for_matching(
        &self,
        v: NodeId,
        dir: Dir,
        label: LabelId,
        f: &mut dyn FnMut(Adj) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    /// Visit every label-matching adjacency entry of `v` in ascending
    /// `(label, node)` order.
    fn for_each_matching(&self, v: NodeId, dir: Dir, label: LabelId, mut f: impl FnMut(Adj))
    where
        Self: Sized,
    {
        let _ = self.try_for_matching(v, dir, label, &mut |a| {
            f(a);
            ControlFlow::Continue(())
        });
    }

    /// Stream every label-matching adjacency endpoint of `v` into
    /// `set`. Semantically `for_each_matching` + insert, but overridable
    /// with a monomorphic loop: the bitset anchor fold pays one dynamic
    /// call per streamed edge through `try_for_matching`, which is the
    /// dominant cost of folding a fat hub adjacency (DESIGN.md §15).
    fn collect_matching_into(&self, v: NodeId, dir: Dir, label: LabelId, set: &mut crate::NodeSet) {
        let _ = self.try_for_matching(v, dir, label, &mut |(_, n)| {
            set.insert(n);
            ControlFlow::Continue(())
        });
    }

    /// True iff some label-matching adjacency entry of `v` satisfies
    /// `pred` (early exit on the first hit).
    fn any_matching(
        &self,
        v: NodeId,
        dir: Dir,
        label: LabelId,
        mut pred: impl FnMut(Adj) -> bool,
    ) -> bool
    where
        Self: Sized,
    {
        self.try_for_matching(v, dir, label, &mut |a| {
            if pred(a) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }
}

impl TopologyView for CsrTopology {
    #[inline]
    fn node_count(&self) -> usize {
        CsrTopology::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        CsrTopology::edge_count(self)
    }

    #[inline]
    fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        CsrTopology::has_edge(self, src, label, dst)
    }

    #[inline]
    fn has_edge_pattern(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        CsrTopology::has_edge_pattern(self, src, label, dst)
    }

    #[inline]
    fn matching_len(&self, v: NodeId, dir: Dir, label: LabelId) -> usize {
        match dir {
            Dir::Out => self.out_matching(v, label).len(),
            Dir::In => self.in_matching(v, label).len(),
        }
    }

    fn try_for_matching(
        &self,
        v: NodeId,
        dir: Dir,
        label: LabelId,
        f: &mut dyn FnMut(Adj) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let slice = match dir {
            Dir::Out => self.out_matching(v, label),
            Dir::In => self.in_matching(v, label),
        };
        for &a in slice {
            f(a)?;
        }
        ControlFlow::Continue(())
    }

    fn collect_matching_into(&self, v: NodeId, dir: Dir, label: LabelId, set: &mut crate::NodeSet) {
        let slice = match dir {
            Dir::Out => self.out_matching(v, label),
            Dir::In => self.in_matching(v, label),
        };
        for &(_, n) in slice {
            set.insert(n);
        }
    }
}

/// A topology view paired with the label→candidate-nodes map the matcher
/// needs for component roots and pivot enumeration.
///
/// Implemented by [`LabelIndex`] (frozen CSR) and [`crate::DeltaIndex`]
/// (CSR + delta overlay); `gfd_match::HomSearch` is generic over it, so
/// the same search code serves the static and the streaming pipeline.
pub trait MatchIndex: Sync {
    /// The topology representation this index carries.
    type View: TopologyView;

    /// The topology view to probe.
    fn view(&self) -> &Self::View;

    /// Candidate nodes for a pattern node labelled `label` (every node
    /// for the wildcard).
    fn candidates(&self, label: LabelId) -> &[NodeId];

    /// How many nodes carry `label` (all nodes for the wildcard).
    fn frequency(&self, label: LabelId) -> usize {
        self.candidates(label).len()
    }

    /// How many edges carry `edge_label` *and* end at a node labelled
    /// `dst_label` — the fan bound of an anchored `FromAnchor` expansion.
    /// Must reflect the *current* view: an overlay implementation reports
    /// delta-adjusted counts, not the frozen-base ones, so match plans
    /// built mid-stream order variables by live selectivity.
    fn out_pair_frequency(&self, edge_label: LabelId, dst_label: LabelId) -> usize;

    /// How many edges carry `edge_label` and start at a node labelled
    /// `src_label` — the `ToAnchor` counterpart of
    /// [`MatchIndex::out_pair_frequency`].
    fn in_pair_frequency(&self, edge_label: LabelId, src_label: LabelId) -> usize;

    /// Total number of indexed nodes.
    fn node_count(&self) -> usize;

    /// Debug-assert the view still reflects `graph`'s topology (see
    /// [`CsrTopology::assert_fresh`]).
    fn assert_fresh(&self, graph: &Graph);
}

impl MatchIndex for LabelIndex {
    type View = CsrTopology;

    #[inline]
    fn view(&self) -> &CsrTopology {
        self.csr()
    }

    #[inline]
    fn candidates(&self, label: LabelId) -> &[NodeId] {
        LabelIndex::candidates(self, label)
    }

    #[inline]
    fn out_pair_frequency(&self, edge_label: LabelId, dst_label: LabelId) -> usize {
        self.csr().out_pair_frequency(edge_label, dst_label)
    }

    #[inline]
    fn in_pair_frequency(&self, edge_label: LabelId, src_label: LabelId) -> usize {
        self.csr().in_pair_frequency(edge_label, src_label)
    }

    #[inline]
    fn node_count(&self) -> usize {
        LabelIndex::node_count(self)
    }

    #[inline]
    fn assert_fresh(&self, graph: &Graph) {
        LabelIndex::assert_fresh(self, graph);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Vocab;

    fn sample() -> (Graph, Vocab) {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e1 = v.label("e1");
        let e2 = v.label("e2");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        let c = g.add_node(t);
        g.add_edge(a, e1, b);
        g.add_edge(a, e2, b);
        g.add_edge(a, e1, c);
        g.add_edge(c, e2, a);
        (g, v)
    }

    #[test]
    fn csr_view_matches_inherent_api() {
        let (g, mut v) = sample();
        let csr = g.freeze();
        let e1 = v.label("e1");
        let a = NodeId::new(0);
        assert_eq!(TopologyView::node_count(&csr), g.node_count());
        assert_eq!(TopologyView::edge_count(&csr), g.edge_count());
        assert_eq!(csr.matching_len(a, Dir::Out, e1), 2);
        assert_eq!(
            csr.matching_len(a, Dir::Out, LabelId::WILDCARD),
            csr.out(a).len()
        );
        let mut seen = Vec::new();
        csr.for_each_matching(a, Dir::Out, e1, |adj| seen.push(adj));
        assert_eq!(seen, csr.out_with_label(a, e1));
        assert!(csr.any_matching(a, Dir::Out, e1, |(_, n)| n == NodeId::new(2)));
        assert!(!csr.any_matching(a, Dir::In, e1, |_| true));
    }

    #[test]
    fn label_index_implements_match_index() {
        let (g, mut v) = sample();
        let idx = LabelIndex::build(&g);
        let t = v.label("t");
        assert_eq!(MatchIndex::candidates(&idx, t).len(), 3);
        assert_eq!(MatchIndex::frequency(&idx, t), 3);
        assert_eq!(MatchIndex::node_count(&idx), 3);
        assert!(MatchIndex::view(&idx).has_edge(NodeId::new(0), v.label("e1"), NodeId::new(1)));
        MatchIndex::assert_fresh(&idx, &g);
    }
}
