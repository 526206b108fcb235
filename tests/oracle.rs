//! The match kernel against an independent oracle (ROADMAP aim 3a).
//!
//! Every other suite compares our engines with each other; this one
//! compares [`HomSearch`] with `gfd_match::brute` — exhaustive
//! enumeration, exponential and obviously correct — as match *multisets*
//! (each match exactly once). Covered: the frozen [`LabelIndex`] and a
//! [`DeltaIndex`] overlay carrying real pending inserts, deletes and new
//! nodes; bind-time admission (per-variable candidate sets driven through
//! `run_admitting`) on and off; stats-driven, structural and pivoted
//! plans; wildcard node and edge labels, self-loops, parallel
//! edges; the three intersection paths of a doubly-anchored step (bitset
//! fold, streamed merge, per-candidate probes), forced by hub fixtures
//! sized against `BITSET_MIN_CANDIDATES`; and the three control paths of
//! a reused search — `reset` mid-search, `rebind` across patterns of
//! different arity, and `split_shallowest` + resuming every prefix after
//! a `Deadline`.

use gfd::graph::{DeltaBatch, DeltaIndex, LabelIndex, MatchIndex, NodeSet};
use gfd::matching::brute::brute_force_matches;
use gfd::matching::{
    HomSearch, IntersectStrategy, MatchPlan, RunOutcome, SearchLimits, BITSET_MIN_CANDIDATES,
};
use gfd::prelude::*;
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::time::Duration;

type Matches = Vec<Vec<NodeId>>;

/// What the oracle says: brute-force matches, minus those a filter
/// excludes, sorted.
fn oracle(graph: &Graph, pattern: &Pattern, filters: Option<&[NodeSet]>) -> Matches {
    let mut out: Matches = brute_force_matches(graph, pattern)
        .iter()
        .filter(|m| {
            filters.is_none_or(|f| pattern.vars().all(|v| f[v.index()].contains(m[v.index()])))
        })
        .map(|m| m.to_vec())
        .collect();
    out.sort();
    out
}

/// Per-variable candidate sets as an admission test under `plan`: a
/// position bound outside its variable's set abandons the branch.
fn admit_in<'a>(
    plan: &'a MatchPlan,
    filters: Option<&'a [NodeSet]>,
) -> impl Fn(usize, &[NodeId]) -> bool + 'a {
    move |pos, m| {
        let v = plan.var_at(pos).index();
        filters.is_none_or(|sets| sets[v].contains(m[v]))
    }
}

/// Run `search` of `plan` to exhaustion under [`admit_in`], appending what
/// it emits.
fn drain_filtered<I: MatchIndex>(
    search: &mut HomSearch<'_, I>,
    plan: &MatchPlan,
    filters: Option<&[NodeSet]>,
    out: &mut Matches,
) {
    let outcome = search.run_admitting(
        admit_in(plan, filters),
        |m| {
            out.push(m.to_vec());
            ControlFlow::Continue(())
        },
        SearchLimits::none(),
    );
    assert_eq!(outcome, RunOutcome::Exhausted);
}

/// Run `search` to exhaustion, appending what it emits.
fn drain<I: MatchIndex>(search: &mut HomSearch<'_, I>, out: &mut Matches) {
    let outcome = search.run(
        |m| {
            out.push(m.to_vec());
            ControlFlow::Continue(())
        },
        SearchLimits::none(),
    );
    assert_eq!(outcome, RunOutcome::Exhausted);
}

fn sorted(mut m: Matches) -> Matches {
    m.sort();
    m
}

/// The kernel's matches under `plan`, whole-graph.
fn kernel<I: MatchIndex>(
    graph: &Graph,
    index: &I,
    pattern: &Pattern,
    plan: &MatchPlan,
    filters: Option<&[NodeSet]>,
) -> Matches {
    let mut search = HomSearch::new(graph, index, pattern, plan);
    let mut out = Vec::new();
    drain_filtered(&mut search, plan, filters, &mut out);
    sorted(out)
}

/// Every plan and driving mode over one `(graph, index, pattern)`.
fn check_all_plans<I: MatchIndex>(
    graph: &Graph,
    index: &I,
    pattern: &Pattern,
    filters: Option<&[NodeSet]>,
) {
    let expect = oracle(graph, pattern, filters);
    let stats = MatchPlan::build(pattern, None, Some(index));
    assert_eq!(kernel(graph, index, pattern, &stats, filters), expect);
    let merge = stats.without_bitset();
    assert_eq!(kernel(graph, index, pattern, &merge, filters), expect);
    let structural = MatchPlan::structural(pattern, None);
    assert_eq!(kernel(graph, index, pattern, &structural, filters), expect);

    // Pivoted at every variable: one search, `reset` per pivot node —
    // the pivots partition the match set.
    for pivot in pattern.vars() {
        let plan = MatchPlan::build(pattern, Some(pivot), Some(index));
        let mut search = HomSearch::new(graph, index, pattern, &plan);
        let mut out = Vec::new();
        for z in graph.nodes() {
            search.reset(&[z]);
            drain_filtered(&mut search, &plan, filters, &mut out);
        }
        assert_eq!(sorted(out), expect, "pivot {pivot:?}");
    }
}

/// `reset` mid-search: interrupt after `stop_after` matches, restart,
/// and the full set comes out — nothing lost, nothing carried over.
fn check_reset_mid_search<I: MatchIndex>(
    graph: &Graph,
    index: &I,
    pattern: &Pattern,
    stop_after: usize,
) {
    let expect = oracle(graph, pattern, None);
    let plan = MatchPlan::build(pattern, None, Some(index));
    let mut search = HomSearch::new(graph, index, pattern, &plan);
    let mut seen = 0;
    search.run(
        |_| {
            seen += 1;
            if seen >= stop_after {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
        SearchLimits::none(),
    );
    search.reset(&[]);
    let mut out = Vec::new();
    drain(&mut search, &mut out);
    assert_eq!(sorted(out), expect);
    // And once more from the exhausted state.
    search.reset(&[]);
    let mut again = Vec::new();
    drain(&mut search, &mut again);
    assert_eq!(sorted(again), expect);
}

/// `rebind` across patterns: one search visits `patterns` in order,
/// twice, leaving the first visit of each half-finished.
fn check_rebind<I: MatchIndex>(graph: &Graph, index: &I, patterns: &[Pattern]) {
    let plans: Vec<MatchPlan> = patterns
        .iter()
        .map(|p| MatchPlan::build(p, None, Some(index)))
        .collect();
    let mut search = HomSearch::new(graph, index, &patterns[0], &plans[0]);
    for round in 0..2 {
        for (pattern, plan) in patterns.iter().zip(&plans) {
            search.rebind(pattern, plan, &[]);
            if round == 0 {
                // Abandon the search after its first match.
                search.run(|_| ControlFlow::Break(()), SearchLimits::none());
                continue;
            }
            let mut out = Vec::new();
            drain(&mut search, &mut out);
            assert_eq!(sorted(out), oracle(graph, pattern, None));
        }
    }
}

/// Straggler splitting: run under an already-expired deadline (the
/// search yields `Deadline` at its first poll), split the shallowest open
/// level, keep going; then resume every prefix the same way on a search
/// of its own. Local matches plus all resumed prefixes must be exactly
/// the oracle's multiset — under admission too: a split prefix re-binds
/// its positions through the same test. Returns how many prefixes were
/// split off.
fn check_split_and_resume<I: MatchIndex>(
    graph: &Graph,
    index: &I,
    pattern: &Pattern,
    filters: Option<&[NodeSet]>,
) -> usize {
    let expect = oracle(graph, pattern, filters);
    let plan = MatchPlan::build(pattern, None, Some(index));
    let mut out = Vec::new();
    let mut queue: Vec<Vec<NodeId>> = vec![Vec::new()];
    let mut split = 0;
    let mut search = HomSearch::new(graph, index, pattern, &plan);
    while let Some(prefix) = queue.pop() {
        search.reset(&prefix);
        loop {
            let outcome = search.run_admitting(
                admit_in(&plan, filters),
                |m| {
                    out.push(m.to_vec());
                    ControlFlow::Continue(())
                },
                SearchLimits::with_ttl(Duration::ZERO),
            );
            match outcome {
                RunOutcome::Exhausted => break,
                RunOutcome::Deadline => {
                    let prefixes = search.split_shallowest();
                    split += prefixes.len();
                    queue.extend(prefixes);
                }
                RunOutcome::Stopped => unreachable!("nothing stops this search"),
            }
        }
    }
    assert_eq!(sorted(out), expect);
    split
}

// ---- generated graphs and patterns ----

#[derive(Clone, Debug)]
struct Scenario {
    /// Node labels (1..=3); the first `base_nodes` exist before the batch.
    labels: Vec<u32>,
    base_nodes: usize,
    /// `(src, label, dst, in_base, deleted_by_batch)`.
    edges: Vec<(usize, u32, usize, bool, bool)>,
}

impl Scenario {
    /// The final graph with a frozen index, and the same graph reached
    /// through an overlay: base graph frozen, then one batch of node
    /// inserts, edge inserts and edge deletes applied on top.
    fn build(&self) -> (Graph, LabelIndex, Graph, DeltaIndex) {
        let mut g = Graph::new();
        for &l in &self.labels[..self.base_nodes] {
            g.add_node(LabelId(l));
        }
        let mut batch = DeltaBatch::new();
        for &l in &self.labels[self.base_nodes..] {
            batch.add_node(LabelId(l));
        }
        for &(s, l, d, in_base, deleted) in &self.edges {
            let (src, dst) = (NodeId::new(s), NodeId::new(d));
            if in_base && s < self.base_nodes && d < self.base_nodes {
                g.add_edge(src, LabelId(l), dst);
                if deleted {
                    batch.del_edge(src, LabelId(l), dst);
                }
            } else {
                batch.add_edge(src, LabelId(l), dst);
            }
        }
        let mut delta = DeltaIndex::build(&g);
        delta.apply(&batch, &mut g);
        let frozen = g.clone();
        let index = LabelIndex::build(&frozen);
        (frozen, index, g, delta)
    }
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..7).prop_flat_map(|n| {
        let labels = proptest::collection::vec(1u32..4, n);
        let edges = proptest::collection::vec(
            ((0..n), 1u32..3, (0..n), any::<bool>(), any::<bool>()),
            0..16,
        );
        (labels, 1..=n, edges).prop_map(|(labels, base_nodes, edges)| Scenario {
            labels,
            base_nodes,
            edges,
        })
    })
}

/// Up to 4 variables; node label 0 and edge label 0 are the wildcard;
/// `src == dst` edges are self-loops.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (1usize..5).prop_flat_map(|k| {
        let labels = proptest::collection::vec(0u32..4, k);
        let edges = proptest::collection::vec(((0..k), 0u32..3, (0..k)), 0..7);
        (labels, edges).prop_map(|(labels, edges)| {
            let mut p = Pattern::new();
            for l in labels {
                p.add_anon_node(LabelId(l));
            }
            for (s, l, d) in edges {
                p.add_edge(VarId::new(s), LabelId(l), VarId::new(d));
            }
            p
        })
    })
}

/// One node set per variable over nodes `0..7`, each node kept with
/// probability ½.
fn arb_filters() -> impl Strategy<Value = Vec<NodeSet>> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), 7), 4).prop_map(|sets| {
        sets.iter()
            .map(|keep| {
                (0..keep.len())
                    .filter(|&i| keep[i])
                    .map(NodeId::new)
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_equals_brute_force_on_both_views(
        scenario in arb_scenario(),
        pattern in arb_pattern(),
        filters in arb_filters(),
    ) {
        let (frozen, index, live, delta) = scenario.build();
        let filters = &filters[..pattern.node_count()];
        for f in [None, Some(filters)] {
            check_all_plans(&frozen, &index, &pattern, f);
            check_all_plans(&live, &delta, &pattern, f);
        }
    }

    #[test]
    fn reused_search_equals_brute_force(
        scenario in arb_scenario(),
        patterns in proptest::collection::vec(arb_pattern(), 2..5),
        stop_after in 1usize..6,
        filters in arb_filters(),
    ) {
        let (frozen, index, live, delta) = scenario.build();
        check_reset_mid_search(&frozen, &index, &patterns[0], stop_after);
        check_reset_mid_search(&live, &delta, &patterns[0], stop_after);
        check_rebind(&frozen, &index, &patterns);
        check_rebind(&live, &delta, &patterns);
        for f in [None, Some(&filters[..patterns[0].node_count()])] {
            check_split_and_resume(&frozen, &index, &patterns[0], f);
            check_split_and_resume(&live, &delta, &patterns[0], f);
        }
    }
}

// ---- hub fixtures: the three intersection paths ----

/// Two hubs `h1 -k-> h2` over `spokes` spoke nodes: `h1 -f-> w_i` for
/// `i < deg_f`, `h2 -g-> w_i` for `shift ≤ i < shift + deg_g`, a
/// parallel `h1 -p-> w_i` on every fifth spoke (what a wildcard edge must
/// dedup) and a self-loop `w_i -l-> w_i` on every fourth.
struct HubFixture {
    graph: Graph,
    vocab: Vocab,
}

fn hub_fixture(deg_f: usize, deg_g: usize, shift: usize) -> HubFixture {
    let mut vocab = Vocab::new();
    let (h, s) = (vocab.label("h"), vocab.label("s"));
    let labels = ["k", "f", "g", "p", "l"].map(|n| vocab.label(n));
    let [k, f, g_, p, l] = labels;
    let mut g = Graph::new();
    let h1 = g.add_node(h);
    let h2 = g.add_node(h);
    g.add_edge(h1, k, h2);
    for i in 0..deg_f.max(shift + deg_g) {
        let w = g.add_node(s);
        if i < deg_f {
            g.add_edge(h1, f, w);
        }
        if (shift..shift + deg_g).contains(&i) {
            g.add_edge(h2, g_, w);
        }
        if i % 5 == 0 {
            g.add_edge(h1, p, w);
        }
        if i % 4 == 0 {
            g.add_edge(w, l, w);
        }
    }
    HubFixture { graph: g, vocab }
}

impl HubFixture {
    /// `y -k-> z, y -first-> w, z -g-> w`, optionally with the self-loop
    /// `w -l-> w`: the planner binds the two hubs first, so `w` closes the
    /// plan anchored on both.
    fn vee(&mut self, first: LabelId, self_loop: bool) -> Pattern {
        let (h, s) = (self.vocab.label("h"), self.vocab.label("s"));
        let mut pat = Pattern::new();
        let y = pat.add_node(h, "y");
        let z = pat.add_node(h, "z");
        let w = pat.add_node(s, "w");
        pat.add_edge(y, self.vocab.label("k"), z);
        pat.add_edge(y, first, w);
        pat.add_edge(z, self.vocab.label("g"), w);
        if self_loop {
            pat.add_edge(w, self.vocab.label("l"), w);
        }
        pat
    }
}

/// Run the whole battery over one fixture; `strategy` is what the stats
/// plan must have picked for the doubly-concrete closing step.
fn check_fixture(mut fx: HubFixture, strategy: IntersectStrategy) {
    let f = fx.vocab.label("f");
    let patterns = [
        fx.vee(f, false),
        fx.vee(f, true),
        fx.vee(LabelId::WILDCARD, false),
    ];
    let index = LabelIndex::build(&fx.graph);
    let closing = MatchPlan::build(&patterns[0], None, Some(&index));
    let last = closing.steps().last().expect("non-empty plan");
    assert_eq!(
        closing.anchors(closing.len() - 1).len(),
        2,
        "the spoke variable must close the plan"
    );
    assert_eq!(last.strategy, strategy);

    // The same graph through an overlay: freeze it without the hubs' `g`
    // edges, then insert those (and delete one `f` edge for good) in a
    // batch — the doubly-anchored step reads merged base + delta slices.
    let g_label = fx.vocab.label("g");
    let mut live = Graph::new();
    for n in fx.graph.nodes() {
        live.add_node(fx.graph.label(n));
    }
    let mut batch = DeltaBatch::new();
    for src in fx.graph.nodes() {
        for &(label, dst) in fx.graph.out_edges(src) {
            if label == g_label {
                batch.add_edge(src, label, dst);
            } else {
                live.add_edge(src, label, dst);
            }
        }
    }
    let mut delta = DeltaIndex::build(&live);
    delta.apply(&batch, &mut live);

    for pattern in &patterns {
        check_all_plans(&fx.graph, &index, pattern, None);
        check_all_plans(&live, &delta, pattern, None);
        check_reset_mid_search(&fx.graph, &index, pattern, 3);
    }
    // Filters that cut the spokes in half.
    let every_other: NodeSet = fx.graph.nodes().filter(|n| n.index() % 2 == 0).collect();
    let all: NodeSet = fx.graph.nodes().collect();
    let filters = [all.clone(), all, every_other];
    check_all_plans(&fx.graph, &index, &patterns[0], Some(&filters));
    check_all_plans(&live, &delta, &patterns[0], Some(&filters));
    check_rebind(&fx.graph, &index, &patterns);
}

#[test]
fn bitset_fold_equals_brute_force() {
    // Both adjacencies ≥ BITSET_MIN_CANDIDATES, so the smaller one — the
    // live candidates — clears the runtime gate too.
    let deg = BITSET_MIN_CANDIDATES + 6;
    check_fixture(hub_fixture(deg, deg, 6), IntersectStrategy::Bitset);
}

#[test]
fn streamed_merge_equals_brute_force() {
    // Comparable adjacencies below the bitset gate: two-pointer merge.
    check_fixture(hub_fixture(40, 30, 20), IntersectStrategy::TwoPointer);
}

#[test]
fn per_candidate_probes_equal_brute_force() {
    // 60 : 6 — the long adjacency is ≥ 8× the candidates, so the kernel
    // probes each candidate instead of streaming it (the plan calls the
    // skew `Gallop`); half the candidates lie past the long adjacency.
    check_fixture(hub_fixture(60, 6, 57), IntersectStrategy::Gallop);
}

#[test]
fn deadline_split_resumes_every_prefix() {
    // A search long enough to be interrupted many times: the wildcard vee
    // over the bitset-sized fixture, plus a two-hop chain with thousands
    // of partial assignments.
    let mut fx = hub_fixture(70, 70, 6);
    let vee = fx.vee(LabelId::WILDCARD, false);
    let (h, s) = (fx.vocab.label("h"), fx.vocab.label("s"));
    let mut chain = Pattern::new();
    let a = chain.add_node(h, "a");
    let b = chain.add_node(s, "b");
    let c = chain.add_node(s, "c");
    chain.add_edge(a, LabelId::WILDCARD, b);
    chain.add_edge(a, LabelId::WILDCARD, c);
    let index = LabelIndex::build(&fx.graph);
    let delta = DeltaIndex::build(&fx.graph);
    let mut split = 0;
    for pattern in [&vee, &chain] {
        split += check_split_and_resume(&fx.graph, &index, pattern, None);
        split += check_split_and_resume(&fx.graph, &delta, pattern, None);
    }
    assert!(split > 0, "the deadline never caught a search mid-way");
    // The same under admission: every other spoke is refused at bind time.
    let every_other: NodeSet = fx.graph.nodes().filter(|n| n.index() % 2 == 0).collect();
    let filters = [every_other.clone(), every_other.clone(), every_other];
    let admitted = check_split_and_resume(&fx.graph, &index, &chain, Some(&filters));
    assert!(
        admitted > 0,
        "the deadline never caught the admitting search"
    );
}
