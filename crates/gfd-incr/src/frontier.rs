//! The dirty frontier: which pivots a delta batch can affect.
//!
//! **Soundness argument** (DESIGN.md §8). Let a rule's pattern be
//! connected with pivot variable `x` and radius `dQ = radius_at(x)`, and
//! let `D` be the batch's dirty nodes: endpoints of inserted *and*
//! deleted edges, attribute-write targets, and created nodes. Any match
//! whose violation status the batch could change — an old match that
//! disappeared or flipped, or a new match that appeared — has an
//! embedding touching some `u ∈ D`:
//!
//! * a new match must use an inserted edge, a created node, or a changed
//!   attribute (otherwise it existed before with the same status);
//! * a vanished match must have used a deleted edge; a flipped match
//!   reads a rewritten attribute.
//!
//! Its pivot image `z` is within `dQ` undirected hops of `u` *in the
//! graph the match lives in*. For post-batch matches that graph is the
//! current one, so `z` is in the current-graph ball around `u`. For
//! pre-batch matches the witnessing path may use a deleted edge
//! `{a, b}` — but then its prefix up to the first contact with `{a, b}`
//! is a current-graph path of length ≤ dQ ending at `a` or `b`, and
//! *both deletion endpoints are dirty*. Either way `z` lies within `dQ`
//! current-graph hops of some dirty node, so a bounded search from `D`
//! over the **post-batch** graph covers every affected pivot, and every
//! cached violation pivoted outside it is untouched.
//!
//! **Cost.** Forward BFS levels sort what they reach into per-pivot-label
//! buckets, and switch to searching back from the candidates once that
//! is cheaper (DESIGN.md §8). Stamps are renewed by bumping an epoch,
//! never cleared, so a batch pays for what it visits, not for `|V|`.

use gfd_graph::{Graph, LabelId, MatchIndex, NodeId};

/// Distance tag of a candidate a backward search settled before the
/// forward levels reached it; `FAR` settles one beyond its radius.
const BACK: u32 = 1 << 31;
const FAR: u32 = u32::MAX;

/// The session's frontier state, reused by every batch.
#[derive(Default)]
pub(crate) struct Frontier {
    /// `stamp[v] == epoch` iff `dist[v]` is `v`'s distance this batch;
    /// `mark[v] == tick` once the current backward search queued `v`.
    /// Both counters are 64-bit: they never wrap.
    stamp: Vec<u64>,
    dist: Vec<u32>,
    epoch: u64,
    mark: Vec<u64>,
    tick: u64,
    /// Per label id, 1 + the index of its bucket (0: none).
    slot_of: Vec<u32>,
    /// Per pivot label, its radius and the nodes settled within it.
    buckets: Vec<(u32, Vec<NodeId>)>,
    /// Every node the forward levels reached: the wildcard's bucket.
    reached: Vec<NodeId>,
    /// Forward levels `k` and `k + 1`, and a backward search's queue.
    level: Vec<NodeId>,
    next: Vec<NodeId>,
    queue: Vec<NodeId>,
    /// Nodes the backward searches visited this batch.
    searched: usize,
    /// Backward finishes and budget fallbacks so far.
    #[cfg(test)]
    pub(crate) paths: [u32; 2],
}

/// Adjacency entries a BFS reads to expand `v`.
fn degree(graph: &Graph, v: NodeId) -> u64 {
    (graph.out_edges(v).len() + graph.in_edges(v).len()) as u64
}

impl Frontier {
    /// Settle, for each `(pivot label, radius)` of `targets`, the nodes of
    /// that label (the wildcard: all) within the radius of `dirty` over the
    /// post-batch `graph`, whose candidates `index` lists, with their
    /// exact distances; bad or repeated dirty ids are skipped. Returns the
    /// nodes visited, forward plus backward.
    pub(crate) fn run<I: MatchIndex>(
        &mut self,
        graph: &Graph,
        index: &I,
        dirty: &[NodeId],
        targets: &[(LabelId, u32)],
    ) -> usize {
        let n = graph.node_count();
        self.epoch += 1;
        self.stamp.resize(n.max(self.stamp.len()), 0);
        self.dist.resize(n.max(self.dist.len()), 0);
        self.mark.resize(n.max(self.mark.len()), 0);
        self.slot_of.clear();
        self.buckets.clear();
        for &(label, r) in targets.iter().filter(|t| !t.0.is_wildcard()) {
            let i = label.index();
            self.slot_of.resize(self.slot_of.len().max(i + 1), 0);
            self.buckets.push((r, Vec::new()));
            self.slot_of[i] = self.buckets.len() as u32;
        }
        self.reached.clear();
        self.next.clear();
        self.searched = 0;
        for &d in dirty.iter().filter(|d| d.index() < n) {
            if self.stamp[d.index()] != self.epoch {
                self.reach(graph, d, 0);
            }
        }
        // One hop from every candidate still to settle, at the mean
        // degree: the wildcard's |V| candidates put it at 2|E| or more,
        // never below a level's reads.
        let (edges, nodes) = (2 * graph.edge_count() as u64, n.max(1) as u64);
        for k in 0.. {
            std::mem::swap(&mut self.level, &mut self.next);
            self.next.clear();
            let wanted: u64 = (targets.iter().filter(|t| t.1 > k))
                .map(|t| index.candidates(t.0).len() as u64)
                .sum();
            let forward: u64 = self.level.iter().map(|&v| degree(graph, v)).sum();
            if wanted == 0 || forward == 0 {
                break;
            }
            if wanted * edges / nodes < forward {
                let done = self.finish_backward(graph, index, targets, k, forward);
                #[cfg(test)]
                {
                    self.paths[usize::from(!done)] += 1;
                }
                if done {
                    break;
                }
            }
            for i in 0..self.level.len() {
                let v = self.level[i];
                for &(_, u) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
                    if self.stamp[u.index()] != self.epoch || self.dist[u.index()] > k + 1 {
                        self.reach(graph, u, k + 1);
                    }
                }
            }
        }
        self.reached.len() + self.searched
    }

    /// Record `v`'s distance `d` (tagged if settled backward), and put it
    /// in its label's bucket the first time it is settled within range.
    fn settle(&mut self, graph: &Graph, v: NodeId, d: u32) {
        let fresh = self.stamp[v.index()] != self.epoch;
        (self.stamp[v.index()], self.dist[v.index()]) = (self.epoch, d);
        let slot = self
            .slot_of
            .get(graph.label(v).index())
            .map_or(0, |&s| s as usize);
        match self.buckets.get_mut(slot.wrapping_sub(1)) {
            Some((r, bucket)) if fresh && d & !BACK <= *r => bucket.push(v),
            _ => {}
        }
    }

    /// The forward levels reach `v` at distance `d`.
    fn reach(&mut self, graph: &Graph, v: NodeId, d: u32) {
        self.settle(graph, v, d);
        self.reached.push(v);
        self.next.push(v);
    }

    /// With the ball of radius `k` exact, settle each candidate outside it
    /// by a BFS back through nodes outside it: a path from outside enters
    /// the ball at level `k`, so the first ball node met `j` hops out puts
    /// the candidate at `k + j`. Gives up, keeping what it settled, past
    /// `budget` adjacency reads.
    fn finish_backward<I: MatchIndex>(
        &mut self,
        graph: &Graph,
        index: &I,
        targets: &[(LabelId, u32)],
        k: u32,
        budget: u64,
    ) -> bool {
        let mut spent = 0;
        for &(label, r) in targets.iter().filter(|t| t.1 > k) {
            for &t in index.candidates(label) {
                if self.stamp[t.index()] == self.epoch {
                    continue;
                }
                self.tick += 1;
                self.mark[t.index()] = self.tick;
                self.queue.clear();
                self.queue.push(t);
                let (mut head, mut found) = (0, FAR);
                'search: for j in 1..=r - k {
                    let end = self.queue.len();
                    for i in head..end {
                        let v = self.queue[i];
                        spent += degree(graph, v);
                        if spent > budget {
                            return false;
                        }
                        for &(_, u) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
                            if self.stamp[u.index()] == self.epoch && self.dist[u.index()] <= k {
                                found = BACK | (k + j);
                                break 'search;
                            }
                            if self.mark[u.index()] != self.tick {
                                self.mark[u.index()] = self.tick;
                                self.queue.push(u);
                            }
                        }
                    }
                    head = end;
                }
                self.searched += self.queue.len();
                self.settle(graph, t, found);
            }
        }
        true
    }

    /// The nodes of pivot `label` (the wildcard: any) within `r` of the
    /// dirty set, for `r` up to the label's radius.
    pub(crate) fn pivots(&self, label: LabelId, r: u32) -> Vec<NodeId> {
        let slot = self.slot_of.get(label.index()).map_or(0, |&s| s as usize);
        let settled = match self.buckets.get(slot.wrapping_sub(1)) {
            _ if label.is_wildcard() => &self.reached,
            Some(bucket) => &bucket.1,
            None => return Vec::new(),
        };
        let within = |&v: &NodeId| self.dist(v).is_some_and(|d| d <= r);
        settled.iter().copied().filter(within).collect()
    }

    /// `v`'s distance to the dirty set, if the forward levels reached it
    /// or a backward search settled it within its label's radius.
    pub(crate) fn dist(&self, v: NodeId) -> Option<u32> {
        let i = v.index();
        (self.stamp.get(i) == Some(&self.epoch) && self.dist[i] != FAR)
            .then(|| self.dist[i] & !BACK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{LabelIndex, Vocab};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rustc_hash::FxHashSet;
    use std::collections::VecDeque;

    /// The reference: the hash-set BFS this module's frontier replaced.
    /// All nodes within `max_radius` undirected hops of any node in
    /// `dirty`, as `(node, distance to the nearest dirty node)` pairs;
    /// out-of-range ids are ignored.
    fn bounded_frontier(graph: &Graph, dirty: &[NodeId], max_radius: u32) -> Vec<(NodeId, u32)> {
        let n = graph.node_count();
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut queue = VecDeque::with_capacity(dirty.len());
        let mut out = Vec::with_capacity(dirty.len());
        for &d in dirty {
            if d.index() < n && seen.insert(d) {
                queue.push_back((d, 0u32));
                out.push((d, 0));
            }
        }
        while let Some((v, d)) = queue.pop_front() {
            if d == max_radius {
                continue;
            }
            for &(_, u) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
                if seen.insert(u) {
                    out.push((u, d + 1));
                    queue.push_back((u, d + 1));
                }
            }
        }
        out
    }

    /// Per group `(pivot label, radius)`, the oracle's pivots with their
    /// distances, sorted.
    fn oracle_pivots(
        graph: &Graph,
        dirty: &[NodeId],
        groups: &[(LabelId, u32)],
    ) -> Vec<Vec<(NodeId, u32)>> {
        let max = groups.iter().map(|g| g.1).max().unwrap_or(0);
        let ball = bounded_frontier(graph, dirty, max);
        groups
            .iter()
            .map(|&(label, r)| {
                let mut out: Vec<(NodeId, u32)> = ball
                    .iter()
                    .copied()
                    .filter(|&(n, d)| d <= r && label.pattern_matches(graph.label(n)))
                    .collect();
                out.sort_unstable();
                out
            })
            .collect()
    }

    /// Run `frontier` as the detector does — one target per pivot label,
    /// at its groups' largest radius — and take each group's pivots.
    fn subject_pivots(
        frontier: &mut Frontier,
        graph: &Graph,
        dirty: &[NodeId],
        groups: &[(LabelId, u32)],
    ) -> Vec<Vec<(NodeId, u32)>> {
        let mut targets: Vec<(LabelId, u32)> = Vec::new();
        for &(label, r) in groups {
            match targets.iter_mut().find(|t| t.0 == label) {
                Some(t) => t.1 = t.1.max(r),
                None => targets.push((label, r)),
            }
        }
        frontier.run(graph, &LabelIndex::build(graph), dirty, &targets);
        groups
            .iter()
            .map(|&(label, r)| {
                let mut out: Vec<(NodeId, u32)> = (frontier.pivots(label, r).into_iter())
                    .map(|n| (n, frontier.dist(n).expect("a pivot has a distance")))
                    .collect();
                out.sort_unstable();
                out
            })
            .collect()
    }

    /// Pivots equal the oracle's, and so does eviction's reading: for
    /// every node a group pivots on, `dist` is within the radius exactly
    /// when the oracle's distance is, and then equal to it.
    fn check(frontier: &mut Frontier, graph: &Graph, dirty: &[NodeId], groups: &[(LabelId, u32)]) {
        let want = oracle_pivots(graph, dirty, groups);
        assert_eq!(subject_pivots(frontier, graph, dirty, groups), want);
        for (&(label, r), want) in groups.iter().zip(&want) {
            for v in graph
                .nodes()
                .filter(|&v| label.pattern_matches(graph.label(v)))
            {
                let got = frontier.dist(v).filter(|&d| d <= r);
                let expected = want.iter().find(|p| p.0 == v).map(|p| p.1);
                assert_eq!(got, expected, "{v:?} for group ({label:?}, {r})");
            }
        }
    }

    /// The old function's shape: every node within `r` of `dirty`.
    fn ball(graph: &Graph, dirty: &[NodeId], r: u32) -> Vec<(NodeId, u32)> {
        let mut f = Frontier::default();
        subject_pivots(&mut f, graph, dirty, &[(LabelId::WILDCARD, r)]).remove(0)
    }

    /// Node labels `a`, `b` (common), `c`, `r1`, `r2` (rare), and the
    /// edge label.
    fn labels() -> ([LabelId; 5], LabelId) {
        let mut v = Vocab::new();
        let ls = ["a", "b", "c", "r1", "r2"].map(|s| v.label(s));
        (ls, v.label("e"))
    }

    /// A random graph: `draws` picks each node's label (rare ones
    /// seldom), `edges` its edges; nodes no edge names stay isolated.
    fn random_graph(draws: &[u8], edges: &[(usize, usize)]) -> Graph {
        let (ls, e) = labels();
        let mut g = Graph::new();
        for &d in draws {
            g.add_node(match d {
                0..=5 => ls[0],
                6..=11 => ls[1],
                12..=13 => ls[2],
                14 => ls[3],
                _ => ls[4],
            });
        }
        for &(s, t) in edges {
            g.add_edge(NodeId::new(s), e, NodeId::new(t));
        }
        g
    }

    /// A group's pivot label: mostly the rare ones, seldom the wildcard.
    fn pivot_label(pick: u8) -> LabelId {
        let (ls, _) = labels();
        match pick {
            0 => LabelId::WILDCARD,
            1..=2 => ls[0],
            3 => ls[1],
            4 => ls[2],
            5..=7 => ls[3],
            _ => ls[4],
        }
    }

    /// Dirty ids (some out of range, some repeated) and groups.
    type Query = (Vec<NodeId>, Vec<(LabelId, u32)>);

    fn query(n: usize) -> impl Strategy<Value = Query> {
        (vec(0..n + 4, 0..8), vec((0u8..10, 0u32..=5), 1..6)).prop_map(|(dirty, groups)| {
            let dirty = dirty.into_iter().map(NodeId::new).collect();
            let groups = groups
                .into_iter()
                .map(|(l, r)| (pivot_label(l), r))
                .collect();
            (dirty, groups)
        })
    }

    fn case() -> impl Strategy<Value = (Graph, Query, Query)> {
        (1usize..60).prop_flat_map(|n| {
            (
                vec(0u8..16, n),
                vec((0..n, 0..n), 0..3 * n),
                query(n),
                query(n),
            )
                .prop_map(|(draws, edges, q1, q2)| (random_graph(&draws, &edges), q1, q2))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every group's pivots, with their distances, are the oracle's —
        /// also on a second batch through the same stamped state.
        #[test]
        fn pivots_match_the_oracle((graph, q1, q2) in case()) {
            let mut frontier = Frontier::default();
            check(&mut frontier, &graph, &q1.0, &q1.1);
            check(&mut frontier, &graph, &q2.0, &q2.1);
        }
    }

    /// A hub `D` whose 50 leaves make level 0 cost 52 reads, and three
    /// rare `r1` candidates: `t1` two hops out, `t2` two hops out past a
    /// neighbour `t1`, and an isolated `t3`. Searching back costs a few
    /// reads: the batch must finish backward from level 0, with the
    /// oracle's distances.
    #[test]
    fn rare_pivots_finish_backward() {
        let ([a, b, _, r1, _], e) = labels();
        let mut g = Graph::new();
        let d = g.add_node(a);
        for _ in 0..50 {
            let leaf = g.add_node(a);
            g.add_edge(d, e, leaf);
        }
        let (x1, x2) = (g.add_node(b), g.add_node(b));
        let (t1, t2, _t3) = (g.add_node(r1), g.add_node(r1), g.add_node(r1));
        g.add_edge(d, e, x1);
        g.add_edge(x1, e, t1);
        g.add_edge(d, e, x2);
        g.add_edge(x2, e, t2);
        g.add_edge(t1, e, t2);
        let mut f = Frontier::default();
        check(&mut f, &g, &[d], &[(r1, 3), (r1, 2), (a, 0)]);
        assert_eq!(f.paths, [1, 0], "[backward finishes, budget fallbacks]");
        assert_eq!(f.dist(t1), Some(2));
        assert_eq!(f.dist(t2), Some(2));
    }

    /// Level 0 (`D`, 11 reads) is cheaper than `t2`'s search, which must
    /// read a 51-degree hub: the attempt at level 0 settles `t1` (three
    /// hops out) and runs out of budget on `t2`. After level 0 goes
    /// forward, level 1 (112 reads) pays for `t2`'s search, and the batch
    /// finishes backward there — so `t1` is only known if the first
    /// attempt kept it.
    #[test]
    fn budget_fallback_keeps_settled_targets() {
        let ([a, b, c, r1, _], e) = labels();
        let mut g = Graph::new();
        let d = g.add_node(a);
        for _ in 0..10 {
            let l = g.add_node(b);
            g.add_edge(d, e, l);
            for _ in 0..10 {
                let leaf = g.add_node(c);
                g.add_edge(l, e, leaf);
            }
        }
        let (y1, y2, t1, t2, hub) = (
            g.add_node(b),
            g.add_node(b),
            g.add_node(r1),
            g.add_node(r1),
            g.add_node(a),
        );
        g.add_edge(d, e, y1);
        g.add_edge(y1, e, y2);
        g.add_edge(y2, e, t1);
        g.add_edge(t2, e, hub);
        for _ in 0..50 {
            let leaf = g.add_node(c);
            g.add_edge(hub, e, leaf);
        }
        let mut f = Frontier::default();
        check(&mut f, &g, &[d], &[(r1, 3), (a, 0)]);
        assert_eq!(f.paths, [1, 1], "[backward finishes, budget fallbacks]");
        assert_eq!(f.dist(t1), Some(3));
        assert_eq!(f.dist(t2), None);
    }

    /// Path graph 0 → 1 → … → n-1.
    fn path(n: usize) -> Graph {
        let (ls, e) = labels();
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(ls[0])).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], e, w[1]);
        }
        g
    }

    #[test]
    fn single_source_matches_ball() {
        let g = path(7);
        let f = ball(&g, &[NodeId::new(3)], 2);
        let nodes: Vec<usize> = f.iter().map(|(n, _)| n.index()).collect();
        assert_eq!(nodes, vec![1, 2, 3, 4, 5]);
        assert!(f.contains(&(NodeId::new(3), 0)));
        assert!(f.contains(&(NodeId::new(1), 2)));
    }

    #[test]
    fn multi_source_takes_nearest_distance() {
        let g = path(10);
        let f = ball(&g, &[NodeId::new(0), NodeId::new(9)], 1);
        let nodes: Vec<usize> = f.iter().map(|(n, _)| n.index()).collect();
        assert_eq!(nodes, vec![0, 1, 8, 9]);
    }

    #[test]
    fn radius_zero_is_the_dirty_set() {
        let g = path(4);
        assert_eq!(ball(&g, &[NodeId::new(2)], 0), vec![(NodeId::new(2), 0)]);
    }

    #[test]
    fn out_of_range_and_duplicate_sources_are_tolerated() {
        let g = path(3);
        let f = ball(&g, &[NodeId::new(1), NodeId::new(1), NodeId::new(99)], 0);
        assert_eq!(f, vec![(NodeId::new(1), 0)]);
    }
}
