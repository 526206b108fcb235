//! Search plans: the variable ordering used by the backtracking matcher.
//!
//! A plan places pattern variables one at a time. Every position after the
//! first in a connected component is *anchored* to at least one earlier
//! position through a pattern edge, so candidate nodes can be generated from
//! adjacency lists instead of the whole graph (the VF2-style expansion the
//! paper adapts to homomorphism in §IV-C).

use gfd_graph::{LabelId, LabelIndex, MatchIndex, Pattern, VarId};
use std::ops::Range;

/// Direction of an anchoring pattern edge relative to the new variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnchorDir {
    /// Edge runs from the anchored (earlier) variable to the new one:
    /// candidates come from the anchor's out-edges.
    FromAnchor,
    /// Edge runs from the new variable to the anchored one: candidates come
    /// from the anchor's in-edges.
    ToAnchor,
}

/// A constraint tying a plan position to an earlier one via a pattern edge.
#[derive(Clone, Copy, Debug)]
pub struct Anchor {
    /// Earlier plan position the edge connects to.
    pub pos: usize,
    /// The pattern edge label (possibly wildcard).
    pub label: LabelId,
    /// Whether the edge leaves or enters the anchor.
    pub dir: AnchorDir,
}

/// How the matcher should merge a step's anchor adjacencies into the
/// candidate list (DESIGN.md §15). Picked per step from the view's
/// `(edge label, endpoint label)` pair frequencies; `TwoPointer` and
/// `Gallop` are advisory (the matcher re-derives the skew regime from
/// the exact lengths at frame time), but `Bitset` gates the
/// word-at-a-time path, which pays off only when several concrete
/// anchors are all high-degree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntersectStrategy {
    /// Linear sorted merge — comparable adjacency lengths.
    #[default]
    TwoPointer,
    /// Exponential-probe merge — one side much longer than the other.
    Gallop,
    /// Materialize each anchor adjacency into a `NodeSet` and intersect
    /// with u64 word ANDs — multiple dense anchors on a hub.
    Bitset,
}

/// Estimated per-anchor expansion (pair frequency) at which a step with
/// two or more concrete anchors switches to the bitset merge. Pinned by
/// the `micro_structures` intersection guard: below this the bitset's
/// materialize/reset overhead loses to the sorted merges.
pub const BITSET_ANCHOR_DEGREE: usize = 64;

/// Length-ratio between the largest and smallest anchor estimates past
/// which the plan labels the step `Gallop` (mirrors the matcher's runtime
/// `PROBE_FACTOR`, past which it probes per candidate instead of merging).
const SKEW_FACTOR: usize = 8;

/// One step of a plan: which variable to place and how to merge the
/// candidates of its anchors. The anchors and self-loops themselves sit
/// in the plan's flat arrays ([`MatchPlan::anchors`],
/// [`MatchPlan::self_loops`]), so a plan is a handful of allocations
/// however many steps it has.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// The pattern variable placed at this position.
    pub var: VarId,
    /// How to merge this step's anchor adjacencies into the candidates.
    pub strategy: IntersectStrategy,
    /// This step's slices of the plan's anchor and self-loop arrays.
    anchors: Range<u32>,
    self_loops: Range<u32>,
}

/// A complete variable ordering for a pattern.
#[derive(Clone, Debug)]
pub struct MatchPlan {
    steps: Vec<PlanStep>,
    /// Every step's anchors, step after step.
    anchors: Vec<Anchor>,
    /// Every step's self-loop labels, step after step.
    self_loops: Vec<LabelId>,
    var_to_pos: Vec<usize>,
}

impl MatchPlan {
    /// Build a plan for `pattern` from structure alone (no target-graph
    /// statistics).
    pub fn structural(pattern: &Pattern, pivot: Option<VarId>) -> Self {
        Self::build(pattern, pivot, None::<&LabelIndex>)
    }

    /// Build a plan for `pattern`.
    ///
    /// * `pivot` — if given, this variable is placed first (required for
    ///   pivoted work-unit matching). Otherwise the most selective variable
    ///   (rarest label per `stats`, if provided) starts the plan.
    /// * `stats` — label frequencies of the target graph, used to order
    ///   choices by selectivity. Optional; structure alone works. Any
    ///   [`MatchIndex`] serves: the frozen [`LabelIndex`] for static
    ///   graphs, `gfd_graph::DeltaIndex` for streaming ones — the latter
    ///   reports delta-adjusted counts, so plans built between
    ///   compactions follow the live selectivity, not the frozen base's.
    pub fn build<I: MatchIndex>(
        pattern: &Pattern,
        pivot: Option<VarId>,
        stats: Option<&I>,
    ) -> Self {
        let n = pattern.node_count();
        assert!(n > 0, "cannot plan an empty pattern");
        if let Some(p) = pivot {
            assert!(p.index() < n, "pivot out of range");
        }
        // `pos_of[v]` is `usize::MAX` until `v` is placed.
        let mut pos_of = vec![usize::MAX; n];
        let placed = |pos_of: &[usize], u: VarId| pos_of[u.index()] != usize::MAX;
        // Per variable, kept up to date as its neighbours are placed: the
        // number of edges to placed variables, and the estimated candidate
        // count when it is placed next — the node-label frequency,
        // sharpened by the real `(edge label, endpoint label)` pair
        // frequencies of the view: an upper bound on the anchored-expansion
        // fan, which is what the matcher actually enumerates. Until a
        // neighbour is placed the estimate is the label frequency.
        let mut fan: Vec<(usize, usize)> = pattern
            .vars()
            .map(|v| {
                (
                    0,
                    stats.map_or(usize::MAX, |s| s.frequency(pattern.label(v))),
                )
            })
            .collect();
        // The most selective unplaced variable: min label frequency, then
        // max degree.
        let most_selective = |pos_of: &[usize], fan: &[(usize, usize)]| {
            (pattern.vars().filter(|&v| !placed(pos_of, v)))
                .min_by_key(|&v| (fan[v.index()].1, usize::MAX - pattern.degree(v)))
                .expect("loop invariant: some variable unplaced")
        };

        let mut plan = MatchPlan {
            steps: Vec::with_capacity(n),
            anchors: Vec::with_capacity(pattern.edge_count()),
            self_loops: Vec::new(),
            var_to_pos: Vec::new(),
        };
        while plan.steps.len() < n {
            let next = if plan.steps.is_empty() {
                pivot.unwrap_or_else(|| most_selective(&pos_of, &fan))
            } else {
                // Prefer variables connected to the placed prefix; among
                // those, max connectivity then min estimated fan-out, the
                // last of equals winning.
                let mut best: Option<((usize, usize), VarId)> = None;
                for v in pattern.vars().filter(|&v| !placed(&pos_of, v)) {
                    let (conn, est) = fan[v.index()];
                    let key = (conn, usize::MAX - est);
                    if conn > 0 && best.is_none_or(|(b, _)| key >= b) {
                        best = Some((key, v));
                    }
                }
                // None: a new component, rooted at the most selective
                // remaining variable.
                best.map_or_else(|| most_selective(&pos_of, &fan), |(_, v)| v)
            };

            let (anchors_start, loops_start) = (plan.anchors.len(), plan.self_loops.len());
            for &(label, u) in pattern.in_edges(next) {
                // Pattern edge u --label--> next.
                if u == next {
                    plan.self_loops.push(label);
                } else if placed(&pos_of, u) {
                    plan.anchors.push(Anchor {
                        pos: pos_of[u.index()],
                        label,
                        dir: AnchorDir::FromAnchor,
                    });
                }
            }
            for &(label, u) in pattern.out_edges(next) {
                // Pattern edge next --label--> u. Self-loops were already
                // collected from the in-edge list.
                if u != next && placed(&pos_of, u) {
                    plan.anchors.push(Anchor {
                        pos: pos_of[u.index()],
                        label,
                        dir: AnchorDir::ToAnchor,
                    });
                }
            }
            let anchors = &plan.anchors[anchors_start..];
            let strategy = choose_strategy(pattern, next, anchors, stats);
            pos_of[next.index()] = plan.steps.len();
            // Edge next --l--> w: w's candidates would come from next's
            // out-slice, so at most `out_pair_frequency` edges produce one;
            // an edge w --l--> next bounds them by the in-slice.
            let out = pattern.out_edges(next).iter().map(|e| (e, true));
            let inn = pattern.in_edges(next).iter().map(|e| (e, false));
            for (&(label, w), from_next) in out.chain(inn) {
                if placed(&pos_of, w) {
                    continue;
                }
                let (conn, est) = &mut fan[w.index()];
                *conn += 1;
                if let Some(s) = stats {
                    let pair = if from_next {
                        s.out_pair_frequency(label, pattern.label(w))
                    } else {
                        s.in_pair_frequency(label, pattern.label(w))
                    };
                    *est = (*est).min(pair);
                }
            }
            let range = |start: usize, end: usize| start as u32..end as u32;
            plan.steps.push(PlanStep {
                var: next,
                strategy,
                anchors: range(anchors_start, plan.anchors.len()),
                self_loops: range(loops_start, plan.self_loops.len()),
            });
        }
        plan.var_to_pos = pos_of;
        plan
    }

    /// The plan steps in placement order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The anchors of the step at `pos`: edges to earlier positions,
    /// empty exactly for component roots.
    pub fn anchors(&self, pos: usize) -> &[Anchor] {
        let r = &self.steps[pos].anchors;
        &self.anchors[r.start as usize..r.end as usize]
    }

    /// Labels of the self-loop pattern edges `var --l--> var` of the step
    /// at `pos`; a candidate node must carry a matching self-loop.
    pub fn self_loops(&self, pos: usize) -> &[LabelId] {
        let r = &self.steps[pos].self_loops;
        &self.self_loops[r.start as usize..r.end as usize]
    }

    /// Number of positions (= pattern variables).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True iff the plan is empty (never true for valid patterns).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The variable placed at `pos`.
    pub fn var_at(&self, pos: usize) -> VarId {
        self.steps[pos].var
    }

    /// The plan position of variable `v`.
    pub fn pos_of(&self, v: VarId) -> usize {
        self.var_to_pos[v.index()]
    }

    /// Positions that start a new connected component (position 0 is always
    /// one of them).
    pub fn component_roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&pos| self.anchors(pos).is_empty())
    }

    /// A copy of this plan with every [`IntersectStrategy::Bitset`] step
    /// demoted to the sorted two-pointer merge. Ordering, anchors and
    /// the remaining strategies are untouched, so the copy isolates the
    /// bitset candidate fold from the rest of the plan — the ablation
    /// the `micro_structures` crossover guard times (DESIGN.md §15).
    pub fn without_bitset(&self) -> Self {
        let mut plan = self.clone();
        for s in &mut plan.steps {
            if s.strategy == IntersectStrategy::Bitset {
                s.strategy = IntersectStrategy::TwoPointer;
            }
        }
        plan
    }
}

/// Pick the merge strategy for a step from the view's pair-frequency
/// stats. The matcher expands from the *smallest* anchor adjacency and
/// merges the rest, so the decision rides on the second-smallest
/// estimate: if every non-seed concrete anchor is still high-degree,
/// word-at-a-time bitset ANDs amortize over all of them; a large
/// largest/smallest skew favours galloping; otherwise the plain
/// two-pointer merge.
fn choose_strategy<I: MatchIndex>(
    pattern: &Pattern,
    var: VarId,
    anchors: &[Anchor],
    stats: Option<&I>,
) -> IntersectStrategy {
    let Some(s) = stats else {
        return IntersectStrategy::TwoPointer;
    };
    // The smallest, second-smallest and largest estimate, in one pass.
    let (mut lo, mut second, mut hi, mut count) = (usize::MAX, usize::MAX, 0, 0);
    for a in anchors.iter().filter(|a| !a.label.is_wildcard()) {
        let est = match a.dir {
            AnchorDir::FromAnchor => s.out_pair_frequency(a.label, pattern.label(var)),
            AnchorDir::ToAnchor => s.in_pair_frequency(a.label, pattern.label(var)),
        };
        if est < lo {
            (lo, second) = (est, lo);
        } else if est < second {
            second = est;
        }
        hi = hi.max(est);
        count += 1;
    }
    if count < 2 {
        IntersectStrategy::TwoPointer
    } else if second >= BITSET_ANCHOR_DEGREE {
        IntersectStrategy::Bitset
    } else if hi >= SKEW_FACTOR * lo.max(1) {
        IntersectStrategy::Gallop
    } else {
        IntersectStrategy::TwoPointer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{Graph, Vocab};

    fn diamond(v: &mut Vocab) -> Pattern {
        // x -> y, x -> z, y -> w, z -> w
        let t = v.label("t");
        let e = v.label("e");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        let w = p.add_node(t, "w");
        p.add_edge(x, e, y);
        p.add_edge(x, e, z);
        p.add_edge(y, e, w);
        p.add_edge(z, e, w);
        p
    }

    #[test]
    fn every_non_root_step_is_anchored() {
        let mut v = Vocab::new();
        let p = diamond(&mut v);
        let plan = MatchPlan::structural(&p, None);
        assert_eq!(plan.len(), 4);
        assert!(plan.component_roots().eq([0]));
        for i in 1..plan.len() {
            assert!(!plan.anchors(i).is_empty(), "step {i} lost connectivity");
            for a in plan.anchors(i) {
                assert!(a.pos < i);
            }
        }
    }

    #[test]
    fn pivot_is_placed_first() {
        let mut v = Vocab::new();
        let p = diamond(&mut v);
        for pv in 0..4 {
            let plan = MatchPlan::structural(&p, Some(VarId::new(pv)));
            assert_eq!(plan.var_at(0), VarId::new(pv));
            assert_eq!(plan.pos_of(VarId::new(pv)), 0);
        }
    }

    #[test]
    fn var_pos_round_trip() {
        let mut v = Vocab::new();
        let p = diamond(&mut v);
        let plan = MatchPlan::structural(&p, Some(VarId::new(2)));
        for pos in 0..plan.len() {
            assert_eq!(plan.pos_of(plan.var_at(pos)), pos);
        }
    }

    #[test]
    fn disconnected_pattern_has_multiple_roots() {
        let mut v = Vocab::new();
        let t = v.label("t");
        let mut p = Pattern::new();
        let a = p.add_node(t, "a");
        let b = p.add_node(t, "b");
        p.add_node(t, "c"); // isolated
        p.add_edge(a, v.label("e"), b);
        let plan = MatchPlan::structural(&p, None);
        assert_eq!(plan.component_roots().count(), 2);
    }

    #[test]
    fn selectivity_prefers_rare_labels() {
        let mut v = Vocab::new();
        let common = v.label("common");
        let rare = v.label("rare");
        let e = v.label("e");
        // Graph: many `common` nodes, one `rare`.
        let mut g = Graph::new();
        let r = g.add_node(rare);
        for _ in 0..10 {
            let c = g.add_node(common);
            g.add_edge(r, e, c);
        }
        let idx = LabelIndex::build(&g);
        // Pattern: common <- rare -> common
        let mut p = Pattern::new();
        let c1 = p.add_node(common, "c1");
        let rr = p.add_node(rare, "r");
        let c2 = p.add_node(common, "c2");
        p.add_edge(rr, e, c1);
        p.add_edge(rr, e, c2);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        assert_eq!(plan.var_at(0), rr, "should start at the rare label");
    }

    #[test]
    fn anchor_directions_reflect_edge_orientation() {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y); // x -> y
        let plan = MatchPlan::structural(&p, Some(x));
        assert_eq!(plan.var_at(1), y);
        let anchors = plan.anchors(1);
        assert_eq!(anchors.len(), 1);
        // Edge runs from the anchor (x at pos 0) to y.
        assert_eq!(anchors[0].dir, AnchorDir::FromAnchor);
        assert_eq!(anchors[0].pos, 0);

        let plan2 = MatchPlan::structural(&p, Some(y));
        assert_eq!(plan2.var_at(1), x);
        assert_eq!(plan2.anchors(1)[0].dir, AnchorDir::ToAnchor);
    }

    /// The streaming-planner regression: a delta batch inverts which
    /// label is rare, and a plan built from the overlay's statistics must
    /// anchor at the *new* rarest label — the frozen base would pick the
    /// stale one.
    #[test]
    fn delta_inverted_rarity_moves_the_anchor() {
        use gfd_graph::{DeltaBatch, NodeId};
        let mut v = Vocab::new();
        let a = v.label("a");
        let b = v.label("b");
        let e = v.label("e");
        // Base: one `a` node, ten `b` nodes — `a` is rare.
        let mut g = Graph::new();
        let ra = g.add_node(a);
        for _ in 0..10 {
            let nb = g.add_node(b);
            g.add_edge(ra, e, nb);
        }
        let mut p = Pattern::new();
        let pa = p.add_node(a, "x");
        let pb = p.add_node(b, "y");
        p.add_edge(pa, e, pb);

        let frozen = LabelIndex::build(&g);
        assert_eq!(MatchPlan::build(&p, None, Some(&frozen)).var_at(0), pa);

        // A delta batch floods the graph with `a` nodes: now `b` is rare.
        let mut idx = frozen.into_delta();
        let mut batch = DeltaBatch::new();
        for i in 0..30 {
            batch.add_node(a);
            batch.add_edge(NodeId::new(11 + i), e, NodeId::new(1));
        }
        idx.apply(&batch, &mut g);

        // The frozen-base plan above anchored at `a`; the overlay-aware
        // one must move to `b`.
        let overlay_plan = MatchPlan::build(&p, None, Some(&idx));
        assert_eq!(
            overlay_plan.var_at(0),
            pb,
            "plan ignored the delta-adjusted label frequencies"
        );
    }

    /// Two dense hubs feeding the same targets: the closing step of the
    /// diamond sees two concrete anchors whose pair frequencies both
    /// clear [`BITSET_ANCHOR_DEGREE`], so the plan gates the bitset merge.
    #[test]
    fn dense_multi_anchor_step_selects_bitset() {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let h1 = g.add_node(t);
        let h2 = g.add_node(t);
        for _ in 0..128 {
            let w = g.add_node(t);
            g.add_edge(h1, e, w);
            g.add_edge(h2, e, w);
        }
        let idx = LabelIndex::build(&g);
        let p = diamond(&mut v);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let multi = (0..plan.len())
            .find(|&i| plan.anchors(i).len() >= 2)
            .expect("diamond has a doubly-anchored step");
        assert_eq!(plan.steps()[multi].strategy, IntersectStrategy::Bitset);
        // Singly-anchored steps never pay for the bitset.
        for i in (0..plan.len()).filter(|&i| plan.anchors(i).len() < 2) {
            assert_ne!(plan.steps()[i].strategy, IntersectStrategy::Bitset);
        }
    }

    /// On a sparse graph the same diamond keeps the two-pointer merge,
    /// and without stats the strategy defaults to it everywhere.
    #[test]
    fn sparse_or_statless_steps_stay_two_pointer() {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        let c = g.add_node(t);
        g.add_edge(a, e, c);
        g.add_edge(b, e, c);
        let idx = LabelIndex::build(&g);
        let p = diamond(&mut v);
        for step in MatchPlan::build(&p, None, Some(&idx)).steps() {
            assert_ne!(step.strategy, IntersectStrategy::Bitset);
        }
        for step in MatchPlan::structural(&p, None).steps() {
            assert_eq!(step.strategy, IntersectStrategy::TwoPointer);
        }
    }

    #[test]
    fn wildcard_label_is_least_selective() {
        let mut v = Vocab::new();
        let rare = v.label("rare");
        let e = v.label("e");
        let mut g = Graph::new();
        let a = g.add_node(rare);
        let b = g.add_node(v.label("other"));
        g.add_edge(a, e, b);
        let idx = LabelIndex::build(&g);
        let mut p = Pattern::new();
        let w = p.add_node(LabelId::WILDCARD, "w");
        let r = p.add_node(rare, "r");
        p.add_edge(r, e, w);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        assert_eq!(plan.var_at(0), r);
    }
}
