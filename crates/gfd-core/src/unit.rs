//! Work units and their dependency-graph ordering (§V-B).
//!
//! A work unit `(Q[z], ϕ)` asks one worker to find and enforce every match
//! of ϕ's pattern whose pivot variable maps to canonical node `z`. Units
//! are the grain of data-partitioned parallelism; splitting a straggler
//! produces *prefix units* that resume deeper search-tree branches.
//!
//! The driver orders units topologically along a dependency graph: unit
//! `w1` precedes `w2` when an attribute of `Y1` occurs in `X2` *and* the
//! pivots are within `dQ1` hops (close enough to interact) — so producers
//! run before consumers and pending re-checks are minimized. Both the
//! sequential and the parallel algorithms get their order here (they are
//! the same driver at different worker counts).
//!
//! Set-up is serial, so it is kept to `O(‖Σ‖ + units · ball + edges · log
//! units)`: nothing is built per rule of Σ unless the rule owns a unit
//! (DESIGN.md §4, "unit set-up cost").

use crate::canonical::CanonicalGraph;
use crate::dependency::DepSet;
use gfd_graph::neighborhood::BallScratch;
use gfd_graph::{AttrId, GfdId, NodeId, VarId};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Where a unit's searches start: the fixed assignments of the leading
/// plan positions (position 0 is the pivot node `z`). Initial reasoning
/// units vastly outnumber split remainders, so their one-node prefix is
/// inline: no allocation per generated unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prefix {
    /// An initial unit `(Q[z], ϕ)`: only the pivot is fixed.
    Pivot(NodeId),
    /// A split remainder: plan positions `0..len` are fixed (never empty).
    Split(Box<[NodeId]>),
    /// A batch of pivots, searched one after the other (never empty) —
    /// detection's grain, where one pivot is too little work to dispatch.
    Pivots(Box<[NodeId]>),
}

impl Prefix {
    /// The prefix of each search the unit runs, in order: position `i` of
    /// the plan ↦ `start[i]`.
    pub fn starts(&self) -> std::slice::Chunks<'_, NodeId> {
        match self {
            Prefix::Pivot(z) => std::slice::from_ref(z).chunks(1),
            // One chunk: the whole prefix.
            Prefix::Split(p) => p.chunks(p.len().max(1)),
            Prefix::Pivots(batch) => batch.chunks(1),
        }
    }
}

/// A unit of work: match rule `gfd` from each start of `prefix`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkUnit {
    /// The rule to match.
    pub gfd: GfdId,
    /// Where the unit's searches start.
    pub prefix: Prefix,
    /// Position in the topological order (0 = run first). Split units
    /// inherit their parent's priority.
    pub priority: u32,
}

impl WorkUnit {
    /// The pivot node (`z` of the paper's `(Q[z], ϕ)`; the first one of
    /// a batch).
    pub fn pivot(&self) -> NodeId {
        match &self.prefix {
            Prefix::Pivot(z) => *z,
            Prefix::Split(p) | Prefix::Pivots(p) => p[0],
        }
    }
}

/// Generate the initial unit list: one unit per (GFD, feasible pivot
/// candidate) pair.
pub fn generate_units(
    sigma: &DepSet,
    canon: &CanonicalGraph,
    pivots: &[VarId],
    prune_components: bool,
) -> Vec<WorkUnit> {
    let mut units = Vec::new();
    for (id, gfd) in sigma.iter() {
        let pivot = pivots[id.index()];
        let pruned;
        let candidates: &[NodeId] = if prune_components {
            pruned = canon.pivot_candidates(&gfd.pattern, pivot);
            &pruned
        } else {
            canon.index.candidates(gfd.pattern.label(pivot))
        };
        units.extend(candidates.iter().map(|&z| WorkUnit {
            gfd: id,
            prefix: Prefix::Pivot(z),
            priority: 0,
        }));
    }
    units
}

/// What the edge test needs to know of a rule that owns a unit.
struct RuleAttrs {
    /// Premise attributes (what the rule consumes).
    consumes: AttrSet,
    /// Consequence attributes with at least one and at most `cap`
    /// consumers in Σ (what it usefully produces).
    produces: AttrSet,
    /// Pattern radius at the pivot.
    radius: u32,
}

/// A small set of attribute names: sorted, with a one-word Bloom signature
/// (bit `id mod 64`) that settles most disjointness tests — the common
/// outcome — without touching the slice.
struct AttrSet {
    sorted: Vec<AttrId>,
    signature: u64,
}

impl AttrSet {
    fn new(attrs: impl Iterator<Item = AttrId>) -> Self {
        let mut sorted: Vec<AttrId> = attrs.collect();
        sorted.sort_unstable();
        sorted.dedup();
        let signature = sorted.iter().fold(0, |s, a| s | 1u64 << (a.index() % 64));
        AttrSet { sorted, signature }
    }
}

/// Do the two sets share an attribute?
fn intersects(a: &AttrSet, b: &AttrSet) -> bool {
    if a.signature & b.signature == 0 {
        return false;
    }
    let (a, b) = (&a.sorted, &b.sorted);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Assign priorities to `units` from the dependency-graph topological
/// order and sort them accordingly.
///
/// `boosted` optionally marks GFDs to front-load (implication's
/// X-subsumption rule); empty-premise GFDs always get the highest priority
/// tier, as in the paper.
pub fn order_units(
    units: &mut [WorkUnit],
    sigma: &DepSet,
    canon: &CanonicalGraph,
    pivots: &[VarId],
    boosted: Option<&[bool]>,
) {
    let n = units.len();
    if n == 0 {
        return;
    }
    let is_boosted = |g: GfdId| boosted.is_some_and(|b| b[g.index()]);

    // attr -> how many GFDs mention it in their premise. The ubiquity cap
    // below needs only this count: an attribute consumed by a large
    // fraction of Σ orders nothing useful and would make the dependency
    // graph quadratic.
    let mut consumer_count: FxHashMap<AttrId, u32> = FxHashMap::default();
    let mut scratch: Vec<AttrId> = Vec::new();
    for (_, gfd) in sigma.iter() {
        scratch.clear();
        scratch.extend(gfd.premise_attrs());
        scratch.sort_unstable();
        scratch.dedup();
        for &a in &scratch {
            *consumer_count.entry(a).or_default() += 1;
        }
    }
    let cap = 32.max(sigma.len() / 8) as u32;

    // Attribute slices and radius, only for the rules that own a unit.
    let mut rules: Vec<Option<RuleAttrs>> = Vec::new();
    rules.resize_with(sigma.len(), || None);
    for u in units.iter() {
        let gfd = &sigma[u.gfd];
        rules[u.gfd.index()].get_or_insert_with(|| RuleAttrs {
            consumes: AttrSet::new(gfd.premise_attrs()),
            produces: AttrSet::new(
                gfd.consequence_attrs()
                    .filter(|a| consumer_count.get(a).is_some_and(|&c| c <= cap)),
            ),
            radius: gfd.pattern.radius_at(pivots[u.gfd.index()]),
        });
    }
    let rule = |g: GfdId| {
        rules[g.index()]
            .as_ref()
            .expect("built for every unit's rule")
    };

    // Units pivoted at each canonical node, as one counting sort:
    // `at_node[node_start[z]..node_start[z + 1]]` are the units at `z`.
    let mut node_start = vec![0u32; canon.graph.node_count() + 1];
    for u in units.iter() {
        node_start[u.pivot().index() + 1] += 1;
    }
    for z in 0..canon.graph.node_count() {
        node_start[z + 1] += node_start[z];
    }
    let mut fill = node_start.clone();
    let mut at_node = vec![0u32; n];
    for (i, u) in units.iter().enumerate() {
        let slot = &mut fill[u.pivot().index()];
        at_node[*slot as usize] = i as u32;
        *slot += 1;
    }

    // Edges: w1 -> w2 when gfd2 consumes what gfd1 produces and pivot2 is
    // within dQ1 hops of pivot1. Balls are small (canonical components are
    // pattern-sized), so a bounded BFS over one reused scratch costs the
    // ball, not |V|, and the units pivoted at one node share it.
    // `succ[succ_of[i].0..succ_of[i].1]` are the successors of unit `i`.
    let mut succ: Vec<u32> = Vec::new();
    let mut succ_of = vec![(0u32, 0u32); n];
    let mut in_deg = vec![0u32; n];
    let mut bfs = BallScratch::new(canon.graph.node_count());
    let mut ball: Vec<(NodeId, u32)> = Vec::new();
    for z in canon.graph.nodes() {
        let here = &at_node[node_start[z.index()] as usize..node_start[z.index() + 1] as usize];
        let producers = || {
            here.iter()
                .map(|&i| (i, rule(units[i as usize].gfd)))
                .filter(|(_, r)| !r.produces.sorted.is_empty())
        };
        let Some(reach) = producers().map(|(_, r)| r.radius).max() else {
            continue;
        };
        ball.clear();
        bfs.for_each_within(&canon.graph, z, reach, |v, d| ball.push((v, d)));
        for (i, r1) in producers() {
            let first = succ.len() as u32;
            // BFS order: distances never decrease along `ball`.
            for &(v, _) in ball.iter().take_while(|&&(_, d)| d <= r1.radius) {
                let (lo, hi) = (node_start[v.index()], node_start[v.index() + 1]);
                for &j in &at_node[lo as usize..hi as usize] {
                    if j != i && intersects(&r1.produces, &rule(units[j as usize].gfd).consumes) {
                        succ.push(j);
                        in_deg[j as usize] += 1;
                    }
                }
            }
            succ_of[i as usize] = (first, succ.len() as u32);
        }
    }

    // Kahn with priority tiers; cycles broken by forcing the best
    // remaining node. Keys order by (boosted, empty premise, unit index),
    // packed so the frontier heap compares one integer. A unit enters the
    // heap once (when its in-degree reaches 0) and is forced only while
    // the heap is empty, so nothing popped was emitted before.
    let key = |i: usize| -> u64 {
        let g = units[i].gfd;
        let tier = u64::from(!is_boosted(g)) << 1 | u64::from(!sigma[g].has_empty_premise());
        tier << 32 | i as u64
    };
    let mut heap: BinaryHeap<Reverse<u64>> = (0..n)
        .filter(|&i| in_deg[i] == 0)
        .map(|i| Reverse(key(i)))
        .collect();
    let mut emitted = vec![false; n];
    // Cycle breaking: when the frontier empties, force the next unemitted
    // node from this key-sorted list (amortized O(n) across the run).
    let mut fallback: Vec<u64> = (0..n).map(key).collect();
    fallback.sort_unstable();
    let mut fb_cursor = 0usize;
    // Unit indices in topological order.
    let mut topo: Vec<u32> = Vec::with_capacity(n);
    while topo.len() < n {
        let next = match heap.pop() {
            Some(Reverse(k)) => k as u32 as usize,
            None => loop {
                let i = fallback[fb_cursor] as u32 as usize;
                if !emitted[i] {
                    break i;
                }
                fb_cursor += 1;
            },
        };
        emitted[next] = true;
        topo.push(next as u32);
        let (lo, hi) = succ_of[next];
        for &j in &succ[lo as usize..hi as usize] {
            let j = j as usize;
            if !emitted[j] {
                in_deg[j] -= 1;
                if in_deg[j] == 0 {
                    heap.push(Reverse(key(j)));
                }
            }
        }
    }
    // Final order: boosted units jump the whole queue (the paper's
    // implication rule gives X-subsumed units the highest priority
    // outright), then topological rank.
    let (front, back): (Vec<u32>, Vec<u32>) = topo
        .into_iter()
        .partition(|&i| is_boosted(units[i as usize].gfd));
    for (priority, &i) in front.iter().chain(&back).enumerate() {
        units[i as usize].priority = priority as u32;
    }
    units.sort_unstable_by_key(|u| u.priority);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::{build_plans, CanonicalGraph};
    use crate::dependency::Dependency;
    use crate::literal::Literal;
    use gfd_graph::{Pattern, Vocab};

    /// Σ resembling the paper's Example 5/7: a seed GFD (∅ premise) and a
    /// consumer GFD over the same pattern shape.
    fn example_sigma(vocab: &mut Vocab) -> DepSet {
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let mk_pattern = |vocab: &mut Vocab| {
            let mut p = Pattern::new();
            let x = p.add_node(vocab.label("t"), "x");
            let y = p.add_node(vocab.label("t"), "y");
            p.add_edge(x, vocab.label("e"), y);
            p
        };
        let _ = (t, e);
        let x = VarId::new(0);
        let y = VarId::new(1);
        let p1 = mk_pattern(vocab);
        let p2 = mk_pattern(vocab);
        DepSet::from_vec(vec![
            // Consumer first on purpose: ordering must move its units after
            // the seed's.
            Dependency::new(
                "consumer",
                p2,
                vec![Literal::eq_const(x, a, 0i64)],
                vec![Literal::eq_const(y, b, 0i64)],
            ),
            Dependency::new("seed", p1, vec![], vec![Literal::eq_const(x, a, 0i64)]),
        ])
    }

    #[test]
    fn units_cover_all_feasible_pivots() {
        let mut vocab = Vocab::new();
        let sigma = example_sigma(&mut vocab);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (pivots, _) = build_plans(&sigma, &canon.index);
        let units = generate_units(&sigma, &canon, &pivots, true);
        // 2 GFDs × (their own 2-node component + the other pattern's
        // identical component) = 2 × 4 pivots... pivot var has label t and
        // both components host the pattern: 4 candidates each.
        assert_eq!(units.len(), 8);
        for u in &units {
            assert!(matches!(u.prefix, Prefix::Pivot(_)));
        }
    }

    #[test]
    fn ordering_puts_empty_premise_units_first() {
        let mut vocab = Vocab::new();
        let sigma = example_sigma(&mut vocab);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (pivots, _) = build_plans(&sigma, &canon.index);
        let mut units = generate_units(&sigma, &canon, &pivots, true);
        order_units(&mut units, &sigma, &canon, &pivots, None);
        // The seed GFD (index 1) has the empty premise: all its units come
        // first.
        let first_half: Vec<usize> = units[..4].iter().map(|u| u.gfd.index()).collect();
        assert_eq!(first_half, vec![1, 1, 1, 1], "{units:?}");
        // Priorities are a permutation of 0..n.
        let mut ps: Vec<u32> = units.iter().map(|u| u.priority).collect();
        ps.sort_unstable();
        assert_eq!(ps, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn boost_overrides_tiering() {
        let mut vocab = Vocab::new();
        let sigma = example_sigma(&mut vocab);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (pivots, _) = build_plans(&sigma, &canon.index);
        let mut units = generate_units(&sigma, &canon, &pivots, true);
        // Boost the consumer (index 0).
        order_units(&mut units, &sigma, &canon, &pivots, Some(&[true, false]));
        assert_eq!(units[0].gfd.index(), 0);
    }

    /// One-node rules over a shared label: `premise → consequence` on
    /// attribute names, all pivoted at the same nodes.
    fn attr_rule(vocab: &mut Vocab, premise: Option<&str>, consequence: &str) -> Dependency {
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label("t"), "x");
        let premise = premise
            .map(|a| vec![Literal::eq_const(x, vocab.attr(a), 1i64)])
            .unwrap_or_default();
        let consequence = vec![Literal::eq_const(x, vocab.attr(consequence), 1i64)];
        Dependency::new(
            format!("{premise:?}->{consequence:?}"),
            p,
            premise,
            consequence,
        )
    }

    /// The rule order of the units pivoted at canonical node 0.
    fn rule_order_at_first_node(sigma: &DepSet) -> Vec<usize> {
        let (canon, _) = CanonicalGraph::for_sigma(sigma);
        let (pivots, _) = build_plans(sigma, &canon.index);
        let mut units = generate_units(sigma, &canon, &pivots, true);
        order_units(&mut units, sigma, &canon, &pivots, None);
        assert_eq!(units.len(), sigma.len() * sigma.len());
        units
            .iter()
            .filter(|u| u.pivot() == NodeId::new(0))
            .map(|u| u.gfd.index())
            .collect()
    }

    #[test]
    fn chain_is_topologically_sorted() {
        let mut vocab = Vocab::new();
        // c<-b, b<-a, seed a. Input order is reversed on purpose.
        let sigma = DepSet::from_vec(vec![
            attr_rule(&mut vocab, Some("b"), "c"),
            attr_rule(&mut vocab, Some("a"), "b"),
            attr_rule(&mut vocab, None, "a"),
        ]);
        assert_eq!(
            rule_order_at_first_node(&sigma),
            vec![2, 1, 0],
            "seed, then a→b, then b→c"
        );
    }

    #[test]
    fn cycles_do_not_hang_and_emit_everything() {
        let mut vocab = Vocab::new();
        let sigma = DepSet::from_vec(vec![
            attr_rule(&mut vocab, Some("a"), "b"),
            attr_rule(&mut vocab, Some("b"), "a"),
        ]);
        // No unit is ever free; forcing falls back to input order.
        assert_eq!(rule_order_at_first_node(&sigma), vec![0, 1]);
    }

    #[test]
    fn empty_sigma_yields_no_units() {
        let sigma = DepSet::new();
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let units = generate_units(&sigma, &canon, &[], true);
        assert!(units.is_empty());
    }
}
