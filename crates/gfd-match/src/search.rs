//! Resumable backtracking homomorphism search.
//!
//! [`HomSearch`] drives a VF2-style state-space search relaxed to
//! homomorphism (pattern nodes may map to the same graph node). The search
//! state is an explicit stack, which gives the two capabilities the
//! parallel algorithms need:
//!
//! * **deadline interruption** — [`HomSearch::run`] can stop mid-search when
//!   a unit's TTL expires and later continue where it left off;
//! * **bind-time admission** — [`HomSearch::run_admitting`] lets its caller
//!   refuse a partial assignment the moment a position is bound;
//! * **work-unit splitting** — [`HomSearch::split_shallowest`] carves the
//!   untried sibling branches of the shallowest open level into *prefix
//!   assignments* that other workers can resume independently (the paper's
//!   Example 6).
//!
//! The search is **allocation-free in steady state** (DESIGN.md §15.5):
//! frames index one candidate arena, matches are lent from one buffer, and
//! [`HomSearch::reset`] / [`HomSearch::rebind`] restart on grown buffers.

use crate::plan::{Anchor, AnchorDir, IntersectStrategy, MatchPlan};
use gfd_graph::{
    Dir, Graph, LabelId, LabelIndex, MatchIndex, NodeId, NodeSet, Pattern, TopologyView,
};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// An *owned* complete match: `match_[v.index()]` is the graph node
/// assigned to pattern variable `v`. [`HomSearch::run`] lends each match
/// to its callback as a `&[NodeId]` of the same layout; box one only
/// where it has to outlive the callback (a recorded violation, a pending
/// premise, [`find_all_matches`]).
pub type Match = Box<[NodeId]>;

/// Why a call to [`HomSearch::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The search space is exhausted; every remaining match was emitted.
    Exhausted,
    /// The deadline passed; the search can be resumed or split.
    Deadline,
    /// The stop flag was raised or the callback returned `Break`.
    Stopped,
}

/// External limits checked periodically during the search.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchLimits<'a> {
    /// The slice's time to live, from its first poll, where the clock is
    /// first read: `run` returns [`RunOutcome::Deadline`] at the first poll
    /// past it (a zero TTL: at the first poll).
    pub ttl: Option<Duration>,
    /// Cooperative cancellation (e.g. another worker found a conflict).
    pub stop: Option<&'a AtomicBool>,
}

impl<'a> SearchLimits<'a> {
    /// No limits: run to exhaustion.
    pub fn none() -> Self {
        Self::default()
    }

    /// Limit by time to live only.
    pub fn with_ttl(ttl: Duration) -> Self {
        SearchLimits {
            ttl: Some(ttl),
            stop: None,
        }
    }
}

/// How often (in search steps) the limits are polled. Steps are counted
/// across a unit's searches, from [`HomSearch::rebind`] on, so a unit of
/// many short searches polls too.
const CHECK_INTERVAL: u32 = 256;

/// One open level of the search: the candidates of a plan position and
/// how many of them were tried.
///
/// Arena invariant (DESIGN.md §15.5): frames own *stack-ordered* ranges
/// of the search's candidate pool — frame `k + 1` starts where frame `k`
/// ends and the top frame ends at `pool.len()` — so pushing a frame
/// appends to the pool and popping one is `pool.truncate(start)`.
struct Frame<'a> {
    /// An unfiltered component root reads the label index in place; its
    /// pool range is empty.
    root: Option<&'a [NodeId]>,
    start: usize,
    end: usize,
    /// Next untried candidate: an index into `root`, else into the pool.
    cursor: usize,
}

impl Frame<'_> {
    fn untried<'s>(&'s self, pool: &'s [NodeId]) -> &'s [NodeId] {
        match self.root {
            Some(root) => &root[self.cursor..],
            None => &pool[self.cursor..self.end],
        }
    }
}

/// A resumable homomorphism search of one pattern in one graph.
///
/// Edge probes and anchored expansion run on the [`TopologyView`]
/// carried by the index — the frozen CSR for a static graph
/// ([`LabelIndex`], the default), or the delta-CSR overlay for a graph
/// under streaming updates (`gfd_graph::DeltaIndex`): `O(log d + log δ)`
/// probes and per-`(node, label)` sorted sub-slices either way, so the
/// static and incremental pipelines share this one search.
pub struct HomSearch<'a, I: MatchIndex = LabelIndex> {
    graph: &'a Graph,
    index: &'a I,
    view: &'a I::View,
    pattern: &'a Pattern,
    plan: &'a MatchPlan,
    /// Fixed assignments for leading plan positions (pivot node and/or a
    /// split prefix).
    prefix: Vec<NodeId>,
    frames: Vec<Frame<'a>>,
    /// Candidate arena every non-root frame indexes into.
    pool: Vec<NodeId>,
    /// Bound node per plan position (what anchors and splits read).
    assignment: Vec<NodeId>,
    /// The same bindings per pattern variable — the buffer lent to `run`'s
    /// callback, written as positions are bound.
    emit: Vec<NodeId>,
    /// Was frame 0 pushed? Started with no open frame means exhausted.
    started: bool,
    /// Steps since the limits were last polled.
    ticks: u32,
    /// The current slice's deadline, set at its first poll.
    deadline: Option<Instant>,
    /// Scratch bitsets for the word-at-a-time anchor merge, sized once
    /// to the graph and left empty by every frame that uses them
    /// (DESIGN.md §15).
    scratch_cand: NodeSet,
    scratch_adj: NodeSet,
}

impl<'a, I: MatchIndex> HomSearch<'a, I> {
    /// A search over the whole graph.
    pub fn new(graph: &'a Graph, index: &'a I, pattern: &'a Pattern, plan: &'a MatchPlan) -> Self {
        // Fail fast (debug builds) if the graph's topology changed behind
        // the index's back — probes on a stale view silently miss edges.
        index.assert_fresh(graph);
        HomSearch {
            graph,
            index,
            view: index.view(),
            pattern,
            plan,
            prefix: Vec::new(),
            frames: Vec::new(),
            pool: Vec::new(),
            assignment: vec![NodeId::new(0); plan.len()],
            emit: vec![NodeId::new(0); plan.len()],
            started: false,
            ticks: 0,
            deadline: None,
            scratch_cand: NodeSet::default(),
            scratch_adj: NodeSet::default(),
        }
    }

    /// Restart the search of the same pattern from `prefix` (position `i`
    /// ↦ `prefix[i]`; one element is pivoted search, longer prefixes
    /// resume split work units), whatever state it was in — fresh,
    /// interrupted or exhausted. Every buffer keeps its capacity, so a
    /// warmed search restarts without allocating. The unit's step count
    /// and slice deadline carry over.
    pub fn reset(&mut self, prefix: &[NodeId]) {
        assert!(
            prefix.len() <= self.plan.len(),
            "prefix longer than the plan"
        );
        self.prefix.clear();
        self.prefix.extend_from_slice(prefix);
        self.frames.clear();
        self.pool.clear();
        self.started = false;
    }

    /// [`HomSearch::reset`] onto another pattern of the same graph, of
    /// any arity: the first search of a new unit.
    pub fn rebind(&mut self, pattern: &'a Pattern, plan: &'a MatchPlan, prefix: &[NodeId]) {
        self.pattern = pattern;
        self.plan = plan;
        self.ticks = 0;
        self.deadline = None;
        // Stale bindings are harmless: a position is bound before it is read.
        self.assignment.resize(plan.len(), NodeId::new(0));
        self.emit.resize(plan.len(), NodeId::new(0));
        self.reset(prefix);
    }

    /// Open the frame of plan position `pos`, given the bound positions
    /// `0..pos`: seed candidates are appended to the pool and every
    /// narrowing step — dedup, anchor intersection, the final validity
    /// filter — compacts that tail in place (the write index never passes
    /// the read index), so a frame push allocates only when the pool has
    /// to grow.
    fn push_frame(&mut self, pos: usize) {
        let (graph, index, view) = (self.graph, self.index, self.view);
        let (plan, step) = (self.plan, &self.plan.steps()[pos]);
        let (anchors, self_loops) = (plan.anchors(pos), plan.self_loops(pos));
        let var_label = self.pattern.label(step.var);
        let assignment = &self.assignment;
        let probe_for = |a: &Anchor| -> (NodeId, Dir) {
            let anchored = assignment[a.pos];
            match a.dir {
                AnchorDir::FromAnchor => (anchored, Dir::Out),
                AnchorDir::ToAnchor => (anchored, Dir::In),
            }
        };
        let pool = &mut self.pool;
        let start = pool.len();
        // Which anchors the candidates already satisfy by construction.
        let (mut seed_i, mut merged_i, mut use_bitset) = (None, None, false);

        if let Some(&node) = self.prefix.get(pos) {
            // Fixed prefix positions carry exactly one candidate, validated
            // by the filter pass like any other.
            pool.push(node);
        } else if anchors.is_empty() {
            // Component root: candidates from the label index, read in
            // place when there is nothing to filter them by.
            let base = index.candidates(var_label);
            if self_loops.is_empty() {
                self.frames.push(Frame {
                    root: Some(base),
                    start,
                    end: start,
                    cursor: 0,
                });
                return;
            }
            pool.extend_from_slice(base);
        } else {
            // Anchored: expand from the anchor with the smallest
            // label-matching adjacency, located in O(log d + log δ) on the
            // topology view (instead of filtering the anchor's full
            // adjacency). This runs once per frame push on the DFS hot
            // path: pick the seed and merge anchors by re-probing
            // `matching_len` (an O(log d) lookup over at most a handful of
            // anchors) rather than materializing every anchor's adjacency.
            let len_for = |a: &Anchor| -> usize {
                let (v, dir) = probe_for(a);
                view.matching_len(v, dir, a.label)
            };
            let best_i = (0..anchors.len())
                .min_by_key(|&i| len_for(&anchors[i]))
                .expect("anchored step has anchors");
            seed_i = Some(best_i);

            // Candidate node ids from the seed adjacency, visited in
            // (label, node) order. Under a concrete label node ids strictly
            // increase; under a wildcard anchor label the same node can
            // recur across label groups, so sort once and dedup adjacently
            // — never an O(d·c) `contains`.
            let seed = &anchors[best_i];
            let (seed_v, seed_dir) = probe_for(seed);
            view.for_each_matching(seed_v, seed_dir, seed.label, |(_, n)| pool.push(n));
            if seed.label.is_wildcard() {
                pool[start..].sort_unstable();
                let mut last = None;
                retain_tail(pool, start, |n| last.replace(n) != Some(n));
            }

            // Non-seed concrete anchors; wildcard anchors have no single
            // sorted sub-slice, so they always stay per-candidate probes.
            let extra = || {
                (0..anchors.len()).filter(move |&i| i != best_i && !anchors[i].label.is_wildcard())
            };
            use_bitset = step.strategy == IntersectStrategy::Bitset
                && extra().next().is_some()
                && pool.len() - start >= BITSET_MIN_CANDIDATES;
            if use_bitset {
                // Bitset regime (plan-gated, DESIGN.md §15): fold *every*
                // remaining concrete anchor adjacency into the candidate
                // bitset, one u64 AND per 64 nodes. Scratch sets are sized
                // once to the graph; each anchor adjacency streams straight
                // into the adjacency scratch, and the draining intersection
                // zeroes it again in the same word pass — one insert per
                // streamed edge, no staging list, no sparse replay. A frame
                // costs O(candidates + Σ adjacency + words), never
                // O(node_count) bit-by-bit. The survivors are read back —
                // and their bits cleared — by the filter pass below.
                let (cand, adj) = (&mut self.scratch_cand, &mut self.scratch_adj);
                cand.reserve_nodes(graph.node_count());
                adj.reserve_nodes(graph.node_count());
                for &c in &pool[start..] {
                    cand.insert(c);
                }
                for i in extra() {
                    let a = &anchors[i];
                    let (v, dir) = probe_for(a);
                    view.collect_matching_into(v, dir, a.label, adj);
                    if cand.intersect_with_drain(adj) == 0 {
                        break;
                    }
                }
            } else if let Some((adj_len, mi)) = extra().map(|i| (len_for(&anchors[i]), i)).min() {
                // Sorted-merge intersection with the next-smallest concrete
                // anchor adjacency: both sequences are ascending, so one
                // streamed two-pointer pass replaces per-candidate edge
                // probes for that anchor — unless the adjacency is ≥
                // PROBE_FACTOR× longer than the candidates: then the
                // O(c·log d) membership probes of the filter pass below
                // are the cheaper intersection, and the anchor is left to
                // them. (The opposite skew cannot occur: the seed is the
                // smallest adjacency, so candidates never outnumber it.)
                if adj_len < PROBE_FACTOR * (pool.len() - start) {
                    let merge = &anchors[mi];
                    let (v, dir) = probe_for(merge);
                    intersect_tail(view, pool, start, v, dir, merge.label);
                    merged_i = Some(mi);
                }
            }
        }

        let scratch_cand = &mut self.scratch_cand;
        retain_tail(pool, start, |node| {
            // `remove` both tests the fold's verdict and clears the bit:
            // candidates ⊇ survivors, so the scratch set is empty again
            // once every candidate was visited.
            (!use_bitset || scratch_cand.remove(node))
                && var_label.pattern_matches(graph.label(node))
                && self_loops
                    .iter()
                    .all(|&l| view.has_edge_pattern(node, l, node))
                // Homomorphism: no injectivity check; just the anchors not
                // already covered by the seed slice, the merge, or the
                // bitset fold.
                && anchors.iter().enumerate().all(|(i, a)| {
                    Some(i) == seed_i
                        || Some(i) == merged_i
                        || (use_bitset && !a.label.is_wildcard())
                        || match probe_for(a) {
                            (anchored, Dir::Out) => view.has_edge_pattern(anchored, a.label, node),
                            (anchored, Dir::In) => view.has_edge_pattern(node, a.label, anchored),
                        }
                })
        });
        self.frames.push(Frame {
            root: None,
            start,
            end: pool.len(),
            cursor: start,
        });
    }

    /// Run the search, lending every match found to `on_match` as a
    /// var-indexed slice (valid for the call only — copy it to keep it).
    ///
    /// Returns when the space is exhausted, a limit triggers, or the
    /// callback breaks. Can be called again after `Deadline` to resume.
    /// The always-admit form of [`HomSearch::run_admitting`]: one loop.
    pub fn run<F>(&mut self, on_match: F, limits: SearchLimits<'_>) -> RunOutcome
    where
        F: FnMut(&[NodeId]) -> ControlFlow<()>,
    {
        self.run_admitting(|_, _| true, on_match, limits)
    }

    /// [`HomSearch::run`] with a bind-time admission test: right after plan
    /// position `pos` is bound — searched candidate or fixed prefix node
    /// alike — `admit(pos, partial)` is asked and `false` abandons the
    /// branch. `partial` is the buffer lent to `on_match`, valid for the
    /// variables of positions `0..=pos` only; `admit` must depend on nothing
    /// else, so pivots, resumption and splits cannot change it (DESIGN.md §3).
    pub fn run_admitting(
        &mut self,
        mut admit: impl FnMut(usize, &[NodeId]) -> bool,
        mut on_match: impl FnMut(&[NodeId]) -> ControlFlow<()>,
        limits: SearchLimits<'_>,
    ) -> RunOutcome {
        if !self.started {
            self.started = true;
            self.push_frame(0);
        }

        let mut ticks = self.ticks;
        let outcome = loop {
            ticks += 1;
            if ticks >= CHECK_INTERVAL {
                ticks = 0;
                if limits.stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
                    break RunOutcome::Stopped;
                }
                if let Some(ttl) = limits.ttl {
                    let now = Instant::now();
                    if now >= *self.deadline.get_or_insert(now + ttl) {
                        self.deadline = None;
                        break RunOutcome::Deadline;
                    }
                }
            }

            let depth = match self.frames.len() {
                0 => {
                    debug_assert!(self.pool.is_empty(), "frames own the whole pool");
                    break RunOutcome::Exhausted;
                }
                d => d - 1,
            };
            let frame = &mut self.frames[depth];
            match frame.untried(&self.pool).first().copied() {
                Some(node) => {
                    frame.cursor += 1;
                    self.assignment[depth] = node;
                    self.emit[self.plan.var_at(depth).index()] = node;
                    if !admit(depth, &self.emit) {
                        continue;
                    }
                    if depth + 1 == self.plan.len() {
                        if on_match(&self.emit).is_break() {
                            break RunOutcome::Stopped;
                        }
                    } else {
                        self.push_frame(depth + 1);
                    }
                }
                None => {
                    self.pool.truncate(frame.start);
                    self.frames.pop();
                }
            }
        };
        self.ticks = ticks;
        outcome
    }

    /// Split the untried sibling branches at the shallowest open level into
    /// prefix assignments (plan positions `0..=d`), removing them from this
    /// search. Returns an empty vector when there is nothing to split.
    /// Fixed prefix positions are never split: one not yet bound (a poll
    /// can come first) would hand off its node without those after it.
    pub fn split_shallowest(&mut self) -> Vec<Vec<NodeId>> {
        let fixed = self.prefix.len();
        for (depth, frame) in self.frames.iter_mut().enumerate().skip(fixed) {
            let untried = frame.untried(&self.pool);
            if untried.is_empty() {
                continue;
            }
            let prefixes = untried
                .iter()
                .map(|&cand| {
                    let mut p = Vec::with_capacity(depth + 1);
                    p.extend_from_slice(&self.assignment[..depth]);
                    p.push(cand);
                    p
                })
                .collect();
            // Consume them locally: this search keeps only the branch it is
            // currently inside.
            frame.cursor = frame.root.map_or(frame.end, <[NodeId]>::len);
            return prefixes;
        }
        Vec::new()
    }
}

/// Keep the elements of `pool[start..]` that satisfy `keep`, in order and
/// in place, and cut the pool after the last one kept.
fn retain_tail(pool: &mut Vec<NodeId>, start: usize, mut keep: impl FnMut(NodeId) -> bool) {
    let mut write = start;
    for read in start..pool.len() {
        let node = pool[read];
        if keep(node) {
            pool[write] = node;
            write += 1;
        }
    }
    pool.truncate(write);
}

/// Length-ratio (anchor adjacency : live candidates) past which
/// `push_frame` probes each candidate for the edge instead of streaming
/// the adjacency through [`intersect_tail`].
const PROBE_FACTOR: usize = 8;

/// Minimum live candidate count for a plan-gated
/// [`IntersectStrategy::Bitset`] step to actually take the bitset path:
/// below this the insert/read-back overhead of the scratch sets loses
/// to the sorted merges even when the plan's estimates were large
/// (estimates are upper bounds; the live set after the seed expansion
/// can be far smaller).
pub const BITSET_MIN_CANDIDATES: usize = 64;

/// Plain two-pointer intersection of two ascending slices: the reference
/// the matcher's in-place merge is tested against, and the baseline of
/// the `micro_structures` crossover guard.
pub fn intersect_slices_two_pointer(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Bitset intersection of two ascending slices: materialize both into
/// [`NodeSet`]s and AND them word-at-a-time (the portable SIMD of the
/// matcher's hub regime). O(|a| + |b| + max_id/64) including the
/// materialization; wins over the pointer merges when both sides are
/// dense and several intersections share one materialized side — the
/// `micro_structures` bench pins the crossover against the two-pointer.
pub fn intersect_slices_bitset(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let cap = match (a.last(), b.last()) {
        (Some(x), Some(y)) => x.index().max(y.index()) + 1,
        _ => return Vec::new(),
    };
    let mut sa = NodeSet::with_capacity(cap);
    for &n in a {
        sa.insert(n);
    }
    let mut sb = NodeSet::with_capacity(cap);
    for &n in b {
        sb.insert(n);
    }
    sa.intersect_with(&sb);
    sa.iter().collect()
}

/// Intersect the ascending candidates `pool[start..]`, in place, with the
/// concrete-label adjacency of `(v, dir)` — whose node ids the view emits
/// ascending — in one streamed two-pointer pass (no materialized second
/// list). Every survivor is written at or before the index it was read
/// from, so the unread candidates are never clobbered.
fn intersect_tail<V: TopologyView>(
    view: &V,
    pool: &mut Vec<NodeId>,
    start: usize,
    v: NodeId,
    dir: Dir,
    label: LabelId,
) {
    let end = pool.len();
    let (mut read, mut write) = (start, start);
    let _ = view.try_for_matching(v, dir, label, &mut |(_, n)| {
        while read < end && pool[read] < n {
            read += 1;
        }
        if read == end {
            return ControlFlow::Break(());
        }
        if pool[read] == n {
            pool[write] = n;
            write += 1;
            read += 1;
        }
        ControlFlow::Continue(())
    });
    pool.truncate(write);
}

/// Lend every match of `pattern` in `graph` to `on_match`, under the
/// stats-driven whole-graph plan, until it breaks.
pub fn for_each_match(
    graph: &Graph,
    index: &LabelIndex,
    pattern: &Pattern,
    on_match: impl FnMut(&[NodeId]) -> ControlFlow<()>,
) {
    let plan = MatchPlan::build(pattern, None, Some(index));
    HomSearch::new(graph, index, pattern, &plan).run(on_match, SearchLimits::none());
}

/// Convenience: collect every match of `pattern` in `graph`.
pub fn find_all_matches(graph: &Graph, index: &LabelIndex, pattern: &Pattern) -> Vec<Match> {
    let mut out = Vec::new();
    for_each_match(graph, index, pattern, |m| {
        out.push(m.into());
        ControlFlow::Continue(())
    });
    out
}

/// Convenience: does `pattern` have at least one match in `graph`?
pub fn has_match(graph: &Graph, index: &LabelIndex, pattern: &Pattern) -> bool {
    let mut found = false;
    for_each_match(graph, index, pattern, |_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// Convenience: count matches of `pattern` in `graph`.
pub fn count_matches(graph: &Graph, index: &LabelIndex, pattern: &Pattern) -> usize {
    let mut n = 0usize;
    for_each_match(graph, index, pattern, |_| {
        n += 1;
        ControlFlow::Continue(())
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{LabelId, VarId, Vocab};

    /// Triangle graph a -> b -> c -> a, all label `t`, edges `e`.
    fn triangle() -> (Graph, Vocab) {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        let c = g.add_node(t);
        g.add_edge(a, e, b);
        g.add_edge(b, e, c);
        g.add_edge(c, e, a);
        (g, v)
    }

    fn edge_pattern(v: &mut Vocab) -> Pattern {
        let t = v.label("t");
        let e = v.label("e");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        p
    }

    #[test]
    fn finds_all_edge_matches_in_triangle() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let ms = find_all_matches(&g, &idx, &p);
        assert_eq!(ms.len(), 3);
        assert!(has_match(&g, &idx, &p));
        assert_eq!(count_matches(&g, &idx, &p), 3);
    }

    #[test]
    fn homomorphism_allows_non_injective_maps() {
        // Graph with a self-loop: one node, edge to itself.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let a = g.add_node(t);
        g.add_edge(a, e, a);
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        // x and y can both map to `a`.
        assert_eq!(count_matches(&g, &idx, &p), 1);
        let ms = find_all_matches(&g, &idx, &p);
        assert_eq!(ms[0][0], ms[0][1]);
    }

    #[test]
    fn cycle_pattern_in_triangle() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let t = v.label("t");
        let e = v.label("e");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        p.add_edge(x, e, y);
        p.add_edge(y, e, z);
        p.add_edge(z, e, x);
        // The 3-cycle maps onto the triangle in 3 rotations (no reflections:
        // edges are directed).
        assert_eq!(count_matches(&g, &idx, &p), 3);
    }

    #[test]
    fn labels_restrict_matches() {
        let mut v = Vocab::new();
        let person = v.label("person");
        let place = v.label("place");
        let lives = v.label("livesIn");
        let mut g = Graph::new();
        let p1 = g.add_node(person);
        let c1 = g.add_node(place);
        let p2 = g.add_node(person);
        g.add_edge(p1, lives, c1);
        g.add_edge(p2, lives, c1);
        g.add_edge(p1, v.label("knows"), p2);
        let idx = LabelIndex::build(&g);

        let mut q = Pattern::new();
        let x = q.add_node(person, "x");
        let y = q.add_node(place, "y");
        q.add_edge(x, lives, y);
        assert_eq!(count_matches(&g, &idx, &q), 2);

        // Wildcard node label matches both person and place.
        let mut qw = Pattern::new();
        let xw = qw.add_node(LabelId::WILDCARD, "x");
        let yw = qw.add_node(LabelId::WILDCARD, "y");
        qw.add_edge(xw, LabelId::WILDCARD, yw);
        assert_eq!(count_matches(&g, &idx, &qw), 3);
    }

    #[test]
    fn pivoted_search_restricts_to_pivot() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        for start in 0..3 {
            let mut found = Vec::new();
            let mut s = HomSearch::new(&g, &idx, &p, &plan);
            s.reset(&[NodeId::new(start)]);
            s.run(
                |m| {
                    found.push(m.to_vec());
                    ControlFlow::Continue(())
                },
                SearchLimits::none(),
            );
            assert_eq!(found.len(), 1);
            assert_eq!(found[0][0], NodeId::new(start));
        }
    }

    #[test]
    fn pivoted_matches_partition_all_matches() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        let mut total = 0;
        for z in g.nodes() {
            let mut s = HomSearch::new(&g, &idx, &p, &plan);
            s.reset(&[z]);
            s.run(
                |_| {
                    total += 1;
                    ControlFlow::Continue(())
                },
                SearchLimits::none(),
            );
        }
        assert_eq!(total, count_matches(&g, &idx, &p));
    }

    #[test]
    fn callback_break_stops_search() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let mut n = 0;
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(n, 1);
    }

    #[test]
    fn resume_after_stop_finds_the_rest() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        let mut first = 0;
        s.run(
            |_| {
                first += 1;
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        let mut rest = 0;
        let outcome = s.run(
            |_| {
                rest += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(first + rest, 3);
    }

    #[test]
    fn split_plus_resume_covers_every_match() {
        // Star graph: center -> 8 leaves; pattern x -> y.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let center = g.add_node(t);
        for _ in 0..8 {
            let leaf = g.add_node(t);
            g.add_edge(center, e, leaf);
        }
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));

        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        s.reset(&[center]);
        // Find the first match, then split the rest.
        let mut local = Vec::new();
        s.run(
            |m| {
                local.push(m.to_vec());
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        let prefixes = s.split_shallowest();
        assert!(!prefixes.is_empty(), "expected sibling branches to split");
        // Finish the local branch.
        s.run(
            |m| {
                local.push(m.to_vec());
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        // Resume every split prefix.
        let mut from_splits = Vec::new();
        for prefix in &prefixes {
            let mut r = HomSearch::new(&g, &idx, &p, &plan);
            r.reset(prefix);
            r.run(
                |m| {
                    from_splits.push(m.to_vec());
                    ControlFlow::Continue(())
                },
                SearchLimits::none(),
            );
        }
        let mut all: Vec<Vec<NodeId>> = local.into_iter().chain(from_splits).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8, "union of split + local must be all matches");
    }

    #[test]
    fn deadline_interrupts_and_resumes() {
        // Large-ish complete bipartite-ish graph so the search has work.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..40).map(|_| g.add_node(t)).collect();
        for &a in &nodes {
            for &b in &nodes {
                g.add_edge(a, e, b);
            }
        }
        let idx = LabelIndex::build(&g);
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        p.add_edge(x, e, y);
        p.add_edge(y, e, z);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        let mut n = 0usize;
        // Deadline already passed: should stop quickly without exhausting.
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::with_ttl(Duration::ZERO),
        );
        assert_eq!(outcome, RunOutcome::Deadline);
        assert!(n < 40 * 40 * 40);
        // Resume without limits and finish.
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(n, 40 * 40 * 40);
    }

    #[test]
    fn stop_flag_aborts() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let stop = AtomicBool::new(true);
        let limits = SearchLimits {
            ttl: None,
            stop: Some(&stop),
        };
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        // The flag is polled every CHECK_INTERVAL steps; a triangle search
        // finishes sooner, so stop may not trigger — use a bigger graph.
        let outcome = s.run(|_| ControlFlow::Continue(()), limits);
        // Either it exhausted before the first poll or it stopped; both are
        // acceptable terminations for a tiny space.
        assert!(matches!(
            outcome,
            RunOutcome::Exhausted | RunOutcome::Stopped
        ));
    }

    #[test]
    fn parallel_edges_with_distinct_labels_yield_one_match_per_binding() {
        // a --e1--> b and a --e2--> b: a wildcard-edge pattern reaches b
        // twice from a, but each (x, y) binding must be emitted once
        // (regression for the anchored-expansion dedup).
        let mut v = Vocab::new();
        let t = v.label("t");
        let e1 = v.label("e1");
        let e2 = v.label("e2");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        g.add_edge(a, e1, b);
        g.add_edge(a, e2, b);
        let idx = LabelIndex::build(&g);

        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, LabelId::WILDCARD, y);
        let ms = find_all_matches(&g, &idx, &p);
        assert_eq!(ms.len(), 1, "one binding, not one per parallel edge");
        assert_eq!(ms[0][x.index()], a);
        assert_eq!(ms[0][y.index()], b);

        // With a concrete edge label each parallel edge still matches.
        let mut q = Pattern::new();
        let xq = q.add_node(t, "x");
        let yq = q.add_node(t, "y");
        q.add_edge(xq, e1, yq);
        assert_eq!(count_matches(&g, &idx, &q), 1);
    }

    #[test]
    fn multi_anchor_intersection_agrees_with_brute_force() {
        // Diamond data graph with an extra distractor: w is reachable
        // from y and z only through the right label pair, exercising the
        // sorted-merge intersection of two anchor sub-slices.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let f = v.label("f");
        let mut g = Graph::new();
        let x = g.add_node(t);
        let y = g.add_node(t);
        let z = g.add_node(t);
        let w_good = g.add_node(t);
        let w_bad = g.add_node(t);
        g.add_edge(x, e, y);
        g.add_edge(x, e, z);
        g.add_edge(y, e, w_good);
        g.add_edge(z, e, w_good);
        g.add_edge(y, e, w_bad);
        g.add_edge(z, f, w_bad); // wrong label: must be pruned
        let idx = LabelIndex::build(&g);

        let mut p = Pattern::new();
        let px = p.add_node(t, "x");
        let py = p.add_node(t, "y");
        let pz = p.add_node(t, "z");
        let pw = p.add_node(t, "w");
        p.add_edge(px, e, py);
        p.add_edge(px, e, pz);
        p.add_edge(py, e, pw);
        p.add_edge(pz, e, pw);
        let mut fast: Vec<Vec<NodeId>> = find_all_matches(&g, &idx, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        let mut brute: Vec<Vec<NodeId>> = crate::brute::brute_force_matches(&g, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        fast.sort();
        brute.sort();
        assert_eq!(fast, brute);
        // The injective diamond instance is found; w_bad shows up only
        // through non-injective maps (y and z folding together), never
        // with distinct y ≠ z images — the f-labelled edge blocks it.
        assert!(fast
            .iter()
            .any(|m| m[pw.index()] == w_good && m[py.index()] != m[pz.index()]));
        assert!(fast
            .iter()
            .filter(|m| m[pw.index()] == w_bad)
            .all(|m| m[py.index()] == m[pz.index()]));
    }

    /// Two dense hubs sharing half their targets: the diamond-closing
    /// step is plan-gated to the bitset merge (both anchor pair
    /// frequencies clear `BITSET_ANCHOR_DEGREE` and the live candidate
    /// set clears `BITSET_MIN_CANDIDATES`), and the match set must be
    /// exactly what brute force and the stats-free two-pointer plan find.
    #[test]
    fn bitset_merge_agrees_with_brute_force_on_hubs() {
        use crate::plan::IntersectStrategy;
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let h1 = g.add_node(t);
        let h2 = g.add_node(t);
        for i in 0..200 {
            let w = g.add_node(t);
            g.add_edge(h1, e, w);
            if i % 2 == 0 {
                g.add_edge(h2, e, w);
            }
        }
        let idx = LabelIndex::build(&g);
        // Diamond: x -> y, x -> z, y -> w, z -> w.
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        let w = p.add_node(t, "w");
        p.add_edge(x, e, y);
        p.add_edge(x, e, z);
        p.add_edge(y, e, w);
        p.add_edge(z, e, w);

        let plan = MatchPlan::build(&p, None, Some(&idx));
        assert!(
            plan.steps()
                .iter()
                .any(|s| s.strategy == IntersectStrategy::Bitset),
            "stats plan on a hub graph must gate the bitset merge"
        );
        let mut bitset: Vec<Vec<NodeId>> = Vec::new();
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        s.run(
            |m| {
                bitset.push(m.to_vec());
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        let structural = MatchPlan::structural(&p, None);
        let mut merged: Vec<Vec<NodeId>> = Vec::new();
        let mut s2 = HomSearch::new(&g, &idx, &p, &structural);
        s2.run(
            |m| {
                merged.push(m.to_vec());
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        let mut brute: Vec<Vec<NodeId>> = crate::brute::brute_force_matches(&g, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        bitset.sort();
        merged.sort();
        brute.sort();
        assert_eq!(bitset, brute);
        assert_eq!(merged, brute);
    }

    #[test]
    fn bitset_slice_intersection_agrees() {
        let a = ids(&(0..500).step_by(3).collect::<Vec<_>>());
        let b = ids(&(0..500).step_by(5).collect::<Vec<_>>());
        assert_eq!(
            intersect_slices_bitset(&a, &b),
            intersect_slices_two_pointer(&a, &b)
        );
        assert_eq!(intersect_slices_bitset(&[], &a), Vec::<NodeId>::new());
        assert_eq!(intersect_slices_bitset(&a, &[]), Vec::<NodeId>::new());
    }

    #[test]
    fn disconnected_pattern_takes_cross_product() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let t = v.label("t");
        let mut p = Pattern::new();
        p.add_node(t, "a");
        p.add_node(t, "b");
        // Two isolated vars: every pair of nodes matches.
        assert_eq!(count_matches(&g, &idx, &p), 9);
    }

    #[test]
    fn filters_prune_candidates() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        // Only admit node 0 for x, anything for y — whether x is searched
        // from the label index or fixed by a pivot prefix.
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        let mut n = 0;
        for prefix in [vec![], vec![NodeId::new(0)], vec![NodeId::new(1)]] {
            s.reset(&prefix);
            s.run_admitting(
                |pos, partial| pos != 0 || partial[0] == NodeId::new(0),
                |m| {
                    assert_eq!(m[0], NodeId::new(0));
                    n += 1;
                    ControlFlow::Continue(())
                },
                SearchLimits::none(),
            );
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn invalid_prefix_yields_no_matches() {
        let mut v = Vocab::new();
        let person = v.label("person");
        let place = v.label("place");
        let mut g = Graph::new();
        g.add_node(person);
        let b = g.add_node(place);
        let idx = LabelIndex::build(&g);
        let mut p = Pattern::new();
        p.add_node(person, "x");
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        // Pivot at a place-labelled node for a person-labelled variable.
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        s.reset(&[b]);
        let mut n = 0;
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(n, 0);
    }

    fn ids(xs: &[usize]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId::new).collect()
    }

    /// `intersect_tail` against the slice two-pointer baseline, in both
    /// directions and at both length skews, on the tail of a pool whose
    /// head (the frames below) must stay untouched.
    #[test]
    fn intersect_tail_merges_in_place() {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let hub = g.add_node(t);
        let spokes: Vec<NodeId> = (0..256).map(|_| g.add_node(t)).collect();
        for (i, &s) in spokes.iter().enumerate() {
            if i % 2 == 0 {
                g.add_edge(hub, e, s);
            }
        }
        let view = g.freeze();
        let even: Vec<NodeId> = spokes.iter().copied().step_by(2).collect();
        let head = ids(&[7, 7, 3]);
        let intersect = |cands: &[NodeId], v: NodeId, dir: Dir| {
            let mut pool = head.clone();
            pool.extend_from_slice(cands);
            intersect_tail(&view, &mut pool, head.len(), v, dir, e);
            assert_eq!(pool[..head.len()], head[..]);
            pool.split_off(head.len())
        };

        // Fewer candidates than edges, then more.
        let few: Vec<NodeId> = spokes[..12].to_vec();
        assert_eq!(
            intersect(&few, hub, Dir::Out),
            intersect_slices_two_pointer(&few, &even)
        );
        let mut all: Vec<NodeId> = vec![hub];
        all.extend(&spokes);
        assert_eq!(intersect(&all, hub, Dir::Out), even);
        assert_eq!(intersect(&[], hub, Dir::Out), vec![]);
        // A spoke has at most one in-neighbour.
        for (i, &s) in spokes[..8].iter().enumerate() {
            let expect = if i % 2 == 0 { vec![hub] } else { vec![] };
            assert_eq!(intersect(&all, s, Dir::In), expect);
        }
    }
}
