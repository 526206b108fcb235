//! Bounded-radius neighborhoods (`dQ`-balls) in data graphs.
//!
//! The locality property exploited by work units (§V-B of the paper): if a
//! match `h` of a connected pattern `Q` pivots `x` at node `z`, then every
//! node of `h(x̄)` lies within `dQ` (undirected) hops of `z`, where `dQ` is
//! the pattern radius at `x`. Pivoted matching therefore restricts its
//! search to the ball extracted here.

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::nodeset::NodeSet;
use std::collections::VecDeque;

/// All nodes within `radius` undirected hops of `center` (inclusive of
/// `center`).
pub fn ball(graph: &Graph, center: NodeId, radius: u32) -> NodeSet {
    let mut set = NodeSet::with_capacity(graph.node_count());
    let mut queue = VecDeque::new();
    set.insert(center);
    queue.push_back((center, 0u32));
    while let Some((v, d)) = queue.pop_front() {
        if d == radius {
            continue;
        }
        for &(_, u) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
            if set.insert(u) {
                queue.push_back((u, d + 1));
            }
        }
    }
    set
}

/// Reusable state for many radius-bounded BFS runs over one graph: an
/// epoch-stamped visited array and a queue, so a run costs the ball it
/// visits — not the `O(|V|)` a fresh [`NodeSet`] per [`ball`] costs.
#[derive(Debug)]
pub struct BallScratch {
    /// `stamp[v] == epoch` iff the current run has reached `v`.
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<(NodeId, u32)>,
}

impl BallScratch {
    /// Scratch for graphs of up to `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        BallScratch {
            stamp: vec![0; node_count],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    /// Call `visit(node, distance)` once for every node within `radius`
    /// undirected hops of `center` (the nodes of [`ball`], `center`
    /// included), in BFS order — so distances never decrease.
    pub fn for_each_within(
        &mut self,
        graph: &Graph,
        center: NodeId,
        radius: u32,
        mut visit: impl FnMut(NodeId, u32),
    ) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
        self.stamp[center.index()] = self.epoch;
        self.queue.push((center, 0));
        let mut head = 0;
        while let Some(&(v, d)) = self.queue.get(head) {
            head += 1;
            visit(v, d);
            if d == radius {
                continue;
            }
            for &(_, u) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
                if self.stamp[u.index()] != self.epoch {
                    self.stamp[u.index()] = self.epoch;
                    self.queue.push((u, d + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Vocab;

    /// A path graph 0 - 1 - 2 - 3 - 4 (directed left to right).
    fn path(n: usize) -> Graph {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(t)).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], e, w[1]);
        }
        g
    }

    #[test]
    fn ball_respects_radius_and_direction_blindness() {
        let g = path(5);
        let b = ball(&g, NodeId::new(2), 1);
        let got: Vec<usize> = b.iter().map(|n| n.index()).collect();
        assert_eq!(got, vec![1, 2, 3]);
        let b2 = ball(&g, NodeId::new(0), 2);
        assert_eq!(b2.len(), 3);
        let all = ball(&g, NodeId::new(2), 10);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn ball_radius_zero_is_center_only() {
        let g = path(3);
        let b = ball(&g, NodeId::new(1), 0);
        assert_eq!(b.len(), 1);
        assert!(b.contains(NodeId::new(1)));
    }

    #[test]
    fn scratch_runs_visit_exactly_the_ball() {
        let g = path(6);
        let mut scratch = BallScratch::new(g.node_count());
        // Back-to-back runs from different centres share the scratch; a
        // stale stamp from one run must not hide a node from the next.
        for (center, radius) in [(2, 1), (3, 1), (0, 2), (5, 0), (2, 10)] {
            let center = NodeId::new(center);
            let mut got = Vec::new();
            scratch.for_each_within(&g, center, radius, |v, d| got.push((d, v)));
            assert_eq!(got[0], (0, center));
            assert!(got.is_sorted_by_key(|&(d, _)| d));
            let mut got: Vec<NodeId> = got.into_iter().map(|(_, v)| v).collect();
            got.sort();
            let want: Vec<NodeId> = ball(&g, center, radius).iter().collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn distances_capped() {
        let g = path(5);
        let mut seen = Vec::new();
        BallScratch::new(g.node_count())
            .for_each_within(&g, NodeId::new(0), 2, |v, d| seen.push((v.index(), d)));
        // Exact hop counts up to the cap; nodes 3 and 4 lie beyond it.
        assert_eq!(seen, [(0, 0), (1, 1), (2, 2)]);
    }
}
