//! Work units and their dependency order (§V-B).
//!
//! The paper's work unit `(Q[z], ϕ)` asks one worker to find and enforce
//! every match of ϕ's pattern whose pivot variable maps to canonical node
//! `z`. Here a unit is a *batch* of them: one rule and up to
//! `PIVOT_BATCH` of its pivot candidates, searched one after the other —
//! an owned deviation (DESIGN.md §4, "unit grain"), since one pivot's
//! search is far less work than dispatching it. Units are the grain of
//! data-partitioned parallelism; a unit that outlives its TTL is carved
//! into *prefix units* that resume deeper search-tree branches and one
//! batch of the pivots it had not reached (`crate::engine`).
//!
//! The driver seeds units so that producers run before consumers and
//! pending re-checks are few: rule ψ precedes rule φ when ψ's consequence
//! writes an attribute that φ's premise reads, on a label both can match.
//! The paper draws that graph between *units* (pivots within `dQ` hops);
//! here it is decided once per rule and a unit takes its rule's rank — an
//! owned deviation (DESIGN.md §4, "unit set-up cost"). Both the sequential
//! and the parallel algorithms get their order here (they are the same
//! driver at different worker counts).
//!
//! Set-up is serial, so it costs `O(‖Σ‖ + pivots)`, and only over the
//! rules that own a unit.

use crate::canonical::CanonicalGraph;
use crate::dependency::{Consequence, DepSet};
use gfd_graph::{strongly_connected, AttrId, GfdId, LabelId, NodeId, VarId};
use rustc_hash::FxHashMap;

/// The most pivots one initial reasoning unit carries. Measured on
/// `sat_dbpedia`, whose rules have at most 205 candidates (every rule one
/// batch), and on Exp-4's wildcard stragglers, whose pivot is every node
/// of `GΣ` (DESIGN.md §4, "unit grain").
const PIVOT_BATCH: usize = 1024;

/// Where a unit's searches start: the fixed assignments of the leading
/// plan positions (position 0 is the pivot node `z`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prefix {
    /// A split remainder: plan positions `0..len` are fixed (never empty).
    Split(Box<[NodeId]>),
    /// A batch of pivots, searched one after the other (never empty): the
    /// initial units of reasoning and of detection.
    Pivots(Box<[NodeId]>),
}

impl Prefix {
    /// The prefix of each search the unit runs, in order: position `i` of
    /// the plan ↦ `start[i]`.
    pub fn starts(&self) -> std::slice::Chunks<'_, NodeId> {
        match self {
            // One chunk: the whole prefix.
            Prefix::Split(p) => p.chunks(p.len().max(1)),
            Prefix::Pivots(batch) => batch.chunks(1),
        }
    }

    /// The pivots of the searches after search `i`: what a unit that
    /// expires during search `i` hands back untried.
    pub fn after(&self, i: usize) -> &[NodeId] {
        match self {
            Prefix::Split(_) => &[],
            Prefix::Pivots(batch) => &batch[i + 1..],
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
}

/// Generate the initial unit list: each rule's feasible pivot candidates,
/// in candidate order, as batches of at most `PIVOT_BATCH`, rule by
/// rule.
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
        units.extend(candidates.chunks(PIVOT_BATCH).map(|batch| WorkUnit {
            gfd: id,
            prefix: Prefix::Pivots(batch.into()),
        }));
    }
    units
}

/// Order `units` so that producers run before consumers: the scheduler
/// runs them in queue position order. `units` are initial units, as
/// `generate_units` makes them: each rule's units one contiguous run.
///
/// The order is decided per rule, over the rules that own a unit. A
/// literal side `x.A` names the key `(A, label of x)`, and ψ → φ iff a key
/// ψ's consequence writes is one φ's premise reads; a wildcard-labelled
/// variable means any label, as a writer and as a reader. The relation is
/// a graph of rules and keys with one edge per literal side, plus per
/// attribute `A` a key for "`A` on every label" (what a wildcard writes)
/// and one for "`A` on some label" (what a wildcard reads), each joined
/// to `A`'s label keys — `O(‖Σ‖)` edges, however many rules share a key.
///
/// Rules rank by the strongly connected components of that graph, which
/// Tarjan's algorithm finds searching from the rules in the order their
/// units come (id order, as `generate_units` emits them): a component
/// comes before every component it reaches, so a rule precedes each
/// consumer that does not feed it back, and inside a component the rules
/// keep the order the search met them in, so a cycle is led by the rule
/// the search entered it at. Tiers then move `boosted` rules
/// (implication's X-subsumption boost) to the front, and empty-premise
/// rules after them; of the two, only a boost can put a rule before a
/// producer it does not feed back. Units take their rule's rank and keep
/// their generation order within it: whole batches move, in one stable
/// sort by rank.
///
/// `_canon` and `_pivots` are read by no one: ROADMAP [bench (b)] drops
/// them with gfdbench's replay of the driver, which calls this signature.
pub fn order_units(
    units: &mut [WorkUnit],
    sigma: &DepSet,
    _canon: &CanonicalGraph,
    _pivots: &[VarId],
    boosted: Option<&[bool]>,
) {
    if units.is_empty() {
        return;
    }

    // The rules that own a unit, in unit order (`generate_units` emits
    // units rule-major, rules ascending), with `local[g]` the index `r` of
    // rule `g` in `rules`.
    let mut local = vec![u32::MAX; units.iter().map(|u| u.gfd.index() + 1).max().unwrap_or(0)];
    let mut rules: Vec<GfdId> = Vec::new();
    for g in units.chunk_by(|a, b| a.gfd == b.gfd).map(|run| run[0].gfd) {
        if local[g.index()] == u32::MAX {
            local[g.index()] = rules.len() as u32;
            rules.push(g);
        }
    }
    let nr = rules.len();

    // The graph as an edge list: rule `r` is node `r`, then key `keys[i]`
    // is node `nr + i`. Key `(A, Some(L))` is `A` on label `L` — on every
    // label under the wildcard — and `(A, None)` is `A` on some label.
    let mut key_node: FxHashMap<(AttrId, Option<LabelId>), u32> = FxHashMap::default();
    let mut keys = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Per rule: its tier, `(not boosted, premise not empty)`.
    let mut tier = Vec::with_capacity(nr);
    for (r, &g) in rules.iter().enumerate() {
        let dep = &sigma[g];
        let boost = boosted.is_some_and(|b| b[g.index()]);
        tier.push((!boost, !dep.has_empty_premise()));
        let (pattern, lits) = match &dep.consequence {
            Consequence::Literals(lits) => (&dep.pattern, lits),
            Consequence::Generate(gen) => (&gen.pattern, &gen.attrs),
        };
        for (pattern, lits, write) in [(pattern, lits, true), (&dep.pattern, &dep.premise, false)] {
            for (x, a) in lits.iter().flat_map(|l| l.vars().zip(l.attrs())) {
                let label = pattern.label(x);
                let key = (a, Some(label).filter(|l| write || !l.is_wildcard()));
                let k = *key_node.entry(key).or_insert_with(|| {
                    keys.push(key);
                    (nr + keys.len() - 1) as u32
                });
                edges.push(if write { (r as u32, k) } else { (k, r as u32) });
            }
        }
    }
    // `A` on every label feeds each label key of `A`, and each feeds `A`
    // on some label.
    for (i, &(a, label)) in keys.iter().enumerate() {
        let k = (nr + i) as u32;
        let Some(label) = label else { continue };
        if let Some(&every) = key_node.get(&(a, Some(LabelId::WILDCARD))) {
            if !label.is_wildcard() {
                edges.push((every, k));
            }
        }
        if let Some(&some) = key_node.get(&(a, None)) {
            edges.push((k, some));
        }
    }

    // The same graph as adjacency rows, one counting pass: row `v` is
    // `succ[at[v]..at[v + 1]]`.
    let nodes = nr + keys.len();
    let mut at = vec![0u32; nodes + 1];
    for &(v, _) in &edges {
        at[v as usize + 1] += 1;
    }
    for v in 0..nodes {
        at[v + 1] += at[v];
    }
    let mut fill = at.clone();
    let mut succ = vec![0u32; edges.len()];
    for &(v, w) in &edges {
        succ[fill[v as usize] as usize] = w;
        fill[v as usize] += 1;
    }

    let comps = strongly_connected(nodes, |v| {
        succ[at[v] as usize..at[v + 1] as usize].iter().copied()
    });
    // Each rule's rank: tier by tier, in component order within a tier.
    let mut at_rank = vec![u32::MAX; nodes];
    for (r, &(_, rank)) in comps[..nr].iter().enumerate() {
        at_rank[rank as usize] = r as u32;
    }
    let mut rank = vec![0usize; nr];
    let mut next = 0;
    for t in [(false, false), (false, true), (true, false), (true, true)] {
        for &r in at_rank
            .iter()
            .filter(|&&r| r != u32::MAX && tier[r as usize] == t)
        {
            rank[r as usize] = next;
            next += 1;
        }
    }

    // Units take their rule's rank, generation order within it.
    units.sort_by_key(|u| rank[local[u.gfd.index()] as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::{build_plans_lazy, CanonicalGraph};
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
        let (pivots, _) = build_plans_lazy(&sigma, &canon.index);
        let units = generate_units(&sigma, &canon, &pivots, true);
        // 2 GFDs × (their own 2-node component + the other pattern's
        // identical component) = 2 × 4 pivots... pivot var has label t and
        // both components host the pattern: 4 candidates each, one batch
        // per rule.
        let batches: Vec<(usize, usize)> = units
            .iter()
            .map(|u| match &u.prefix {
                Prefix::Pivots(batch) => (u.gfd.index(), batch.len()),
                Prefix::Split(_) => panic!("an initial unit is a pivot batch"),
            })
            .collect();
        assert_eq!(batches, vec![(0, 4), (1, 4)]);
    }

    #[test]
    fn ordering_puts_empty_premise_units_first() {
        let mut vocab = Vocab::new();
        let sigma = example_sigma(&mut vocab);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (pivots, _) = build_plans_lazy(&sigma, &canon.index);
        let mut units = generate_units(&sigma, &canon, &pivots, true);
        order_units(&mut units, &sigma, &canon, &pivots, None);
        // The seed GFD (index 1) has the empty premise: its batch, all four
        // pivots, comes first.
        let order: Vec<(usize, usize)> = units
            .iter()
            .map(|u| (u.gfd.index(), u.prefix.starts().len()))
            .collect();
        assert_eq!(order, vec![(1, 4), (0, 4)], "{units:?}");
    }

    #[test]
    fn boost_overrides_tiering() {
        let mut vocab = Vocab::new();
        let sigma = example_sigma(&mut vocab);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (pivots, _) = build_plans_lazy(&sigma, &canon.index);
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

    /// The rule order of the units that search canonical node 0.
    fn rule_order_at_first_node(sigma: &DepSet) -> Vec<usize> {
        let (canon, _) = CanonicalGraph::for_sigma(sigma);
        let (pivots, _) = build_plans_lazy(sigma, &canon.index);
        let mut units = generate_units(sigma, &canon, &pivots, true);
        order_units(&mut units, sigma, &canon, &pivots, None);
        let searched = |u: &WorkUnit| u.prefix.starts().len();
        assert_eq!(
            units.iter().map(searched).sum::<usize>(),
            sigma.len() * sigma.len()
        );
        units
            .iter()
            .filter(|u| u.prefix.starts().any(|z| z[0] == NodeId::new(0)))
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
        // One cycle: the search enters it at rule 0, which leads it.
        assert_eq!(rule_order_at_first_node(&sigma), vec![0, 1]);
    }

    /// A one-node rule over label `label`: `x.premise = 1 → x.consequence
    /// = 1`.
    fn labelled_rule(
        vocab: &mut Vocab,
        label: &str,
        premise: &str,
        consequence: &str,
    ) -> Dependency {
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label(label), "x");
        let premise = vec![Literal::eq_const(x, vocab.attr(premise), 1i64)];
        let consequence = vec![Literal::eq_const(x, vocab.attr(consequence), 1i64)];
        Dependency::new(format!("{label}:{premise:?}"), p, premise, consequence)
    }

    /// Rule indices of the ordered units, one entry per run of a rule.
    fn rule_runs(sigma: &DepSet) -> Vec<usize> {
        let (canon, _) = CanonicalGraph::for_sigma(sigma);
        let (pivots, _) = build_plans_lazy(sigma, &canon.index);
        let mut units = generate_units(sigma, &canon, &pivots, true);
        order_units(&mut units, sigma, &canon, &pivots, None);
        let mut runs: Vec<usize> = units.iter().map(|u| u.gfd.index()).collect();
        runs.dedup();
        runs
    }

    #[test]
    fn wildcard_producer_orders_before_concrete_consumer() {
        let mut vocab = Vocab::new();
        // Rule 0 writes `A` on any label, rule 1 reads it on `t`. Were the
        // wildcard one more label, nothing would tie them and the later
        // search (rule 1's) would come first.
        let sigma = DepSet::from_vec(vec![
            labelled_rule(&mut vocab, "_", "C", "A"),
            labelled_rule(&mut vocab, "t", "A", "B"),
        ]);
        assert_eq!(rule_runs(&sigma), vec![0, 1]);
    }

    #[test]
    fn concrete_producer_orders_before_wildcard_consumer() {
        let mut vocab = Vocab::new();
        let sigma = DepSet::from_vec(vec![
            labelled_rule(&mut vocab, "t", "C", "A"),
            labelled_rule(&mut vocab, "_", "A", "B"),
        ]);
        assert_eq!(rule_runs(&sigma), vec![0, 1]);
    }

    #[test]
    fn batch_cap_splits_a_wildcard_rule_into_ordered_batches() {
        // Rule 0 pivots on the wildcard, so every node of `GΣ` is its
        // candidate: its own, and one per single-node rule after it, each
        // on a label of its own (one candidate apiece).
        let mut vocab = Vocab::new();
        let attr = vocab.attr("A");
        let one_node = |label: LabelId| {
            let mut p = Pattern::new();
            let x = p.add_node(label, "x");
            let then = vec![Literal::eq_const(x, attr, 1i64)];
            Dependency::new(format!("{label:?}"), p, vec![], then)
        };
        let mut rules = vec![one_node(LabelId::WILDCARD)];
        for i in 0..2 * PIVOT_BATCH + 100 {
            rules.push(one_node(vocab.label(&format!("l{i}"))));
        }
        let sigma = DepSet::from_vec(rules);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (pivots, _) = build_plans_lazy(&sigma, &canon.index);
        let wildcard = GfdId::new(0);
        let candidates = canon.pivot_candidates(&sigma[wildcard].pattern, pivots[0]);
        let n = candidates.len();
        assert_eq!(n, sigma.len());
        for prune in [true, false] {
            let units = generate_units(&sigma, &canon, &pivots, prune);
            let batches: Vec<&[NodeId]> = (units.iter().filter(|u| u.gfd == wildcard))
                .map(|u| match &u.prefix {
                    Prefix::Pivots(batch) => &batch[..],
                    Prefix::Split(_) => panic!("an initial unit is a pivot batch"),
                })
                .collect();
            assert_eq!(batches.len(), n.div_ceil(PIVOT_BATCH), "prune={prune}");
            assert!(batches.iter().all(|b| b.len() <= PIVOT_BATCH));
            assert_eq!(batches.concat(), candidates, "prune={prune}");
            // The other rules: one batch of one pivot each, in rule order.
            assert_eq!(units.len(), batches.len() + sigma.len() - 1);
            assert!(units[batches.len()..]
                .iter()
                .enumerate()
                .all(|(i, u)| u.gfd.index() == i + 1 && u.prefix.starts().len() == 1));
        }
    }

    #[test]
    fn empty_sigma_yields_no_units() {
        let sigma = DepSet::new();
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let units = generate_units(&sigma, &canon, &[], true);
        assert!(units.is_empty());
    }
}
