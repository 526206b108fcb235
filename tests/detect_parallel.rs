//! The parallel detector against the sequential oracle: on any graph and
//! rule set, `gfd-detect` must find exactly the violations that
//! `gfd_core::find_violations` finds, at every worker count, TTL and
//! batch size.
//!
//! The second half compares it with an oracle that shares no code with the
//! match kernel — `gfd_match::brute` plus the leaf-level `literal_holds` /
//! `consequence_holds` — on small random and hand-built inputs: detection
//! checks its premise *inside* the search, as variables are bound, and the
//! violations and the per-rule counts must be what evaluating the premise
//! on every complete match gives — also when rules that share a pattern
//! share one search, each member keeping the branches its premise admits.

use gfd::core::validate::{consequence_holds, premise_holds};
use gfd::core::GenerateConsequence;
use gfd::detect::{detect, DetectConfig, RulePlans};
use gfd::gen::{plant_violation, random_graph, GraphGenConfig};
use gfd::graph::{AttrId, LabelIndex};
use gfd::matching::brute::brute_force_matches;
use gfd::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// Key a violation deterministically for set comparison.
fn keys_from_detect(report: &gfd::detect::DetectionReport) -> Vec<(usize, Vec<usize>)> {
    let mut keys: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.gfd.index(), v.m.iter().map(|n| n.index()).collect()))
        .collect();
    keys.sort();
    keys
}

fn keys_from_oracle(violations: &[gfd::core::Violation]) -> Vec<(usize, Vec<usize>)> {
    let mut keys: Vec<_> = violations
        .iter()
        .map(|v| (v.gfd.index(), v.m.iter().map(|n| n.index()).collect()))
        .collect();
    keys.sort();
    keys
}

/// A seeded workload: a random clean-ish graph with planted violations.
fn workload(seed: u64) -> (Graph, DepSet) {
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 12, seed, None);
    let mut graph = random_graph(
        &w.schema,
        &GraphGenConfig {
            nodes: 120,
            edges: 360,
            attr_prob: 0.3,
            seed,
        },
    );
    // Plant a handful of violations of the first few rules.
    for (i, (_, gfd)) in w.sigma.iter().take(4).enumerate() {
        plant_violation(&mut graph, gfd, &w.schema, seed.wrapping_add(i as u64));
    }
    (graph, w.sigma)
}

#[test]
fn detector_matches_oracle_across_worker_counts() {
    for seed in [5u64, 19] {
        let (graph, sigma) = workload(seed);
        let oracle = keys_from_oracle(&gfd::find_violations(&graph, &sigma, usize::MAX));
        assert!(!oracle.is_empty(), "workload must contain violations");
        for workers in [1usize, 2, 8] {
            let report = detect(&graph, &sigma, &DetectConfig::with_workers(workers));
            assert_eq!(
                keys_from_detect(&report),
                oracle,
                "divergence at p={workers}, seed={seed}"
            );
            assert!(!report.truncated);
        }
    }
}

#[test]
fn ttl_zero_and_tiny_batches_change_nothing() {
    let (graph, sigma) = workload(7);
    let oracle = keys_from_oracle(&gfd::find_violations(&graph, &sigma, usize::MAX));
    let config = DetectConfig {
        ttl: Duration::ZERO,
        batch_size: 1,
        ..DetectConfig::with_workers(4)
    };
    let report = detect(&graph, &sigma, &config);
    assert_eq!(keys_from_detect(&report), oracle);
}

#[test]
fn heavy_units_split_and_still_agree_with_the_oracle() {
    // A dense graph where every pivoted search has a large tree: 30
    // mutually-connected nodes and a two-hop chain pattern give ~900
    // matches per pivot — far past the matcher's deadline-poll interval,
    // so TTL=0 must trigger splitting.
    let mut vocab = Vocab::new();
    let t = vocab.label("t");
    let e = vocab.label("e");
    let a = vocab.attr("a");
    let mut graph = Graph::new();
    let nodes: Vec<_> = (0..30).map(|_| graph.add_node(t)).collect();
    for &x in &nodes {
        for &y in &nodes {
            graph.add_edge(x, e, y);
        }
    }
    // Half the nodes carry a = 1; the rule demands a = 1 everywhere a
    // two-hop path starts, so the other half are violations.
    for (i, &n) in nodes.iter().enumerate() {
        graph.set_attr(n, a, Value::int((i % 2) as i64));
    }
    let mut p = Pattern::new();
    let x = p.add_node(t, "x");
    let y = p.add_node(t, "y");
    let z = p.add_node(t, "z");
    p.add_edge(x, e, y);
    p.add_edge(y, e, z);
    let sigma = DepSet::from_vec(vec![Dependency::new(
        "starts-are-ones",
        p,
        vec![],
        vec![Literal::eq_const(x, a, 1i64)],
    )]);

    let oracle = keys_from_oracle(&gfd::find_violations(&graph, &sigma, usize::MAX));
    // 15 zero-valued pivots × 30 × 30 continuations.
    assert_eq!(oracle.len(), 15 * 30 * 30);
    let config = DetectConfig {
        ttl: Duration::ZERO,
        batch_size: 4,
        ..DetectConfig::with_workers(4)
    };
    let report = detect(&graph, &sigma, &config);
    assert_eq!(keys_from_detect(&report), oracle);
    assert!(
        report.metrics.units_split > 0,
        "expected splits: {report:?}"
    );
}

#[test]
fn budget_truncation_is_a_prefix_of_the_oracle_set() {
    let (graph, sigma) = workload(3);
    let oracle = keys_from_oracle(&gfd::find_violations(&graph, &sigma, usize::MAX));
    let budget = oracle.len().saturating_sub(1).max(1);
    let config = DetectConfig {
        max_violations: budget,
        ..DetectConfig::with_workers(4)
    };
    let report = detect(&graph, &sigma, &config);
    assert_eq!(report.violations.len(), budget);
    assert!(report.truncated);
    // Every reported violation is a real one.
    for key in keys_from_detect(&report) {
        assert!(oracle.contains(&key), "fabricated violation {key:?}");
    }
}

#[test]
fn per_rule_stats_are_consistent() {
    let (graph, sigma) = workload(11);
    let report = detect(&graph, &sigma, &DetectConfig::with_workers(4));
    assert_eq!(report.per_rule.len(), sigma.len());
    let total: u64 = report.per_rule.iter().map(|s| s.violations).sum();
    assert_eq!(total as usize, report.violations.len());
    for stats in &report.per_rule {
        assert!(stats.violations <= stats.matches);
    }
}

#[test]
fn clean_generated_graph_stays_clean_under_parallel_detection() {
    // Without planting, the generator's canonical values satisfy the
    // mined-style rules.
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 10, 31, None);
    let graph = random_graph(
        &w.schema,
        &GraphGenConfig {
            nodes: 80,
            edges: 200,
            attr_prob: 0.5,
            seed: 31,
        },
    );
    let oracle = gfd::find_violations(&graph, &w.sigma, usize::MAX);
    let report = detect(&graph, &w.sigma, &DetectConfig::with_workers(4));
    assert_eq!(report.violations.len(), oracle.len());
}

// ---- against the brute-force oracle ----

/// Brute force: per rule, how many matches satisfy the premise, and which
/// of those fail the consequence.
fn brute_oracle(graph: &Graph, sigma: &DepSet) -> (Vec<u64>, Vec<(usize, Vec<usize>)>) {
    let index = LabelIndex::build(graph);
    let mut hits = vec![0u64; sigma.len()];
    let mut violations = Vec::new();
    for (id, dep) in sigma.iter() {
        for m in brute_force_matches(graph, &dep.pattern) {
            if !premise_holds(graph, dep, &m) {
                continue;
            }
            hits[id.index()] += 1;
            if !consequence_holds(graph, &index, dep, &m) {
                violations.push((id.index(), m.iter().map(|n| n.index()).collect()));
            }
        }
    }
    violations.sort();
    (hits, violations)
}

/// `detect` at every worker count, with default grain and with maximal
/// splitting, reports the brute-force violations and is lent exactly the
/// on-premise matches of each rule.
fn assert_detect_equals_brute(graph: &Graph, sigma: &DepSet) {
    let (hits, violations) = brute_oracle(graph, sigma);
    for workers in [1usize, 2, 8] {
        let splitting = DetectConfig {
            ttl: Duration::ZERO,
            batch_size: 1,
            ..DetectConfig::with_workers(workers)
        };
        for config in [DetectConfig::with_workers(workers), splitting] {
            let report = detect(graph, sigma, &config);
            let at = format!("p={workers}, ttl={:?}", config.ttl);
            assert_eq!(keys_from_detect(&report), violations, "{at}");
            for (i, stats) in report.per_rule.iter().enumerate() {
                assert_eq!(stats.matches, hits[i], "rule {i} matches, {at}");
            }
        }
    }
}

const A: AttrId = AttrId(0);
const B: AttrId = AttrId(1);

/// A literal over variable *slots*: taken modulo the pattern's (or the
/// target's) variable count when the rule is built.
#[derive(Clone, Debug)]
enum Lit {
    Const(usize, bool, i64),
    Attr(usize, bool, usize, bool),
}

impl Lit {
    fn build(&self, k: usize) -> Literal {
        let attr = |b: bool| if b { B } else { A };
        match *self {
            Lit::Const(v, a, c) => Literal::eq_const(VarId::new(v % k), attr(a), c),
            Lit::Attr(v, a, u, b) => {
                Literal::eq_attr(VarId::new(v % k), attr(a), VarId::new(u % k), attr(b))
            }
        }
    }
}

fn arb_lit() -> impl Strategy<Value = Lit> {
    prop_oneof![
        (0usize..4, any::<bool>(), 0i64..2).prop_map(|(v, a, c)| Lit::Const(v, a, c)),
        (0usize..4, any::<bool>(), 0usize..4, any::<bool>())
            .prop_map(|(v, a, u, b)| Lit::Attr(v, a, u, b)),
    ]
}

/// ≤ 10 nodes over two labels, edges over two labels (self-loops and
/// parallel edges included), attributes `A` and `B` each absent, 0 or 1 —
/// so values repeat across nodes and go missing.
fn arb_small_graph() -> impl Strategy<Value = Graph> {
    (1usize..=10).prop_flat_map(|n| {
        let labels = proptest::collection::vec(1u32..3, n);
        let edges = proptest::collection::vec(((0..n), 1u32..3, (0..n)), 0..=2 * n);
        let value = || proptest::option::of(0i64..2);
        let attrs = proptest::collection::vec((value(), value()), n);
        (labels, edges, attrs).prop_map(|(labels, edges, attrs)| {
            let mut g = Graph::new();
            for l in labels {
                g.add_node(LabelId(l));
            }
            for (s, l, d) in edges {
                g.add_edge(NodeId::new(s), LabelId(l), NodeId::new(d));
            }
            for (i, (a, b)) in attrs.into_iter().enumerate() {
                for (attr, v) in [(A, a), (B, b)] {
                    if let Some(v) = v {
                        g.set_attr(NodeId::new(i), attr, Value::int(v));
                    }
                }
            }
            g
        })
    })
}

/// A pattern over 1–4 variables (label 0 is the wildcard; no edges gives a
/// disconnected pattern, `src == dst` a self-loop).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (1usize..=4).prop_flat_map(|k| {
        let labels = proptest::collection::vec(0u32..3, k);
        let edges = proptest::collection::vec(((0..k), 0u32..3, (0..k)), 0..5);
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

/// What a rule says over its pattern: a premise, consequence literals,
/// and — when set — the generating consequence that replaces them.
type Body = (Vec<Lit>, Vec<Lit>, Option<(u32, usize, u32, Option<Lit>)>);

/// A premise of 0–3 literals anywhere on the variables, and a literal or a
/// generating consequence.
fn arb_body() -> impl Strategy<Value = Body> {
    let premise = proptest::collection::vec(arb_lit(), 0..=3);
    let literals = proptest::collection::vec(arb_lit(), 1..=2);
    // Generating: one fresh node of label `l`, an edge to it from a premise
    // variable, and optionally an assignment read off the extended match.
    let generate = (1u32..3, 0usize..4, 1u32..3, proptest::option::of(arb_lit()));
    (premise, literals, proptest::option::of(generate))
}

fn rule_on(p: Pattern, (premise, literals, generate): &Body) -> Dependency {
    let k = p.node_count();
    let premise: Vec<Literal> = premise.iter().map(|l| l.build(k)).collect();
    match generate {
        None => {
            let y: Vec<Literal> = literals.iter().map(|l| l.build(k)).collect();
            Dependency::new("r", p, premise, y)
        }
        Some((fresh_label, from, edge_label, attr)) => {
            let mut gen = GenerateConsequence::over(&p);
            let fresh = gen.add_fresh(LabelId(*fresh_label), "f");
            gen.add_edge(VarId::new(from % k), LabelId(*edge_label), fresh);
            if let Some(lit) = attr {
                gen.push_attr(lit.build(k + 1));
            }
            Dependency::new("r", p, premise, gen)
        }
    }
}

/// A rule on a random pattern.
fn arb_small_rule() -> impl Strategy<Value = Dependency> {
    (arb_pattern(), arb_body()).prop_map(|(p, body)| rule_on(p, &body))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn detector_equals_brute_force_with_the_premise_in_the_search(
        graph in arb_small_graph(),
        rules in proptest::collection::vec(arb_small_rule(), 1..=3),
    ) {
        assert_detect_equals_brute(&graph, &DepSet::from_vec(rules));
    }

    /// 2–6 rules over one pattern — one search per consequence kind —
    /// with their own premises and consequences, one of them twice.
    #[test]
    fn a_shared_pattern_group_equals_brute_force(
        graph in arb_small_graph(),
        pattern in arb_pattern(),
        bodies in proptest::collection::vec(arb_body(), 1..=5),
    ) {
        let mut rules: Vec<Dependency> =
            bodies.iter().map(|b| rule_on(pattern.clone(), b)).collect();
        rules.push(rules[0].clone());
        assert_detect_equals_brute(&graph, &DepSet::from_vec(rules));
    }
}

/// More rules on one pattern than a group holds: 70 rules on `x -e-> y`
/// split into groups of 64 and 6, whose premises and consequences cycle
/// through every literal shape — and still equal brute force.
#[test]
fn more_members_than_the_mask_width_split_into_groups() {
    let (g, t, _, e) = hand_built_graph();
    let v = VarId::new;
    let mut edge = Pattern::new();
    edge.add_anon_node(t);
    edge.add_anon_node(t);
    edge.add_edge(v(0), e, v(1));
    let premises = [
        vec![],
        vec![Literal::eq_const(v(0), A, 1i64)],
        vec![Literal::eq_const(v(1), B, 0i64)],
        vec![Literal::eq_attr(v(0), A, v(1), A)],
        vec![
            Literal::eq_const(v(0), B, 1i64),
            Literal::eq_attr(v(0), B, v(1), B),
        ],
    ];
    let consequences = [
        Literal::eq_const(v(1), A, 1i64),
        Literal::eq_attr(v(0), B, v(1), B),
        Literal::eq_const(v(0), B, 0i64),
    ];
    let sigma = DepSet::from_vec(
        (0..70)
            .map(|i| {
                Dependency::new(
                    format!("r{i}"),
                    edge.clone(),
                    premises[i % premises.len()].clone(),
                    vec![consequences[i % consequences.len()].clone()],
                )
            })
            .collect(),
    );
    let plans = RulePlans::build(&sigma, &LabelIndex::build(&g));
    let sizes: Vec<usize> = plans.groups.iter().map(|g| g.members.len()).collect();
    assert_eq!(sizes, [64, 6]);
    let (hits, violations) = brute_oracle(&g, &sigma);
    assert!(hits.iter().all(|&h| h > 0), "every premise holds somewhere");
    assert!(!violations.is_empty());
    assert_detect_equals_brute(&g, &sigma);
}

/// A `t` chain n0 → n1 → n2 → n3 → n4 with a chord and a 2-cycle; one `u`
/// node whose only `e` edge is its self-loop. `A` is 1 along the chain
/// (absent on n4, 0 on n5); `B` repeats 0/1. Returns the graph and the
/// labels `t`, `u`, `e`.
fn hand_built_graph() -> (Graph, LabelId, LabelId, LabelId) {
    let (t, u) = (LabelId(1), LabelId(2));
    let e = LabelId(1);
    let mut g = Graph::new();
    let n: Vec<NodeId> = (0..6).map(|_| g.add_node(t)).collect();
    for w in n[..5].windows(2) {
        g.add_edge(w[0], e, w[1]);
    }
    g.add_edge(n[0], e, n[2]);
    g.add_edge(n[3], e, n[2]);
    g.add_edge(n[5], e, n[5]);
    let only_u = g.add_node(u);
    g.add_edge(only_u, e, only_u);
    for (i, &node) in n.iter().enumerate() {
        match i {
            4 => {}
            5 => g.set_attr(node, A, Value::int(0)),
            _ => g.set_attr(node, A, Value::int(1)),
        }
        g.set_attr(node, B, Value::int((i % 2) as i64));
    }
    g.set_attr(only_u, B, Value::int(1));
    (g, t, u, e)
}

/// The shapes the random rules only sometimes hit, built by hand: a
/// disconnected pattern, a self-loop, two variables forced onto one node
/// (by two rules that share that pattern, so one search serves both), two
/// literals on one variable, the empty premise, and a four-variable
/// chain whose premise puts a constant literal on *every* variable and an
/// attribute–attribute literal on *every* pair — so whatever pivot and
/// order the planner picks, there is a literal on the pivot variable and
/// one spanning the first and the last plan position.
#[test]
fn detector_equals_brute_force_on_hand_built_premises() {
    let (g, t, u, e) = hand_built_graph();

    let node_pattern = |labels: &[LabelId], edges: &[(usize, usize)]| {
        let mut p = Pattern::new();
        for &l in labels {
            p.add_anon_node(l);
        }
        for &(s, d) in edges {
            p.add_edge(VarId::new(s), e, VarId::new(d));
        }
        p
    };
    let v = VarId::new;

    // Chain of four: constants on every variable, attr–attr on every pair.
    let chain = node_pattern(&[t, t, t, t], &[(0, 1), (1, 2), (2, 3)]);
    let mut chain_premise: Vec<Literal> =
        (0..4).map(|i| Literal::eq_const(v(i), A, 1i64)).collect();
    for i in 0..4 {
        for j in i + 1..4 {
            chain_premise.push(Literal::eq_attr(v(i), A, v(j), A));
        }
    }
    let chain_rule = Dependency::new(
        "chain",
        chain,
        chain_premise,
        vec![Literal::eq_attr(v(0), B, v(3), B)],
    );
    // Disconnected pair joined only by its premise.
    let pair = Dependency::new(
        "pair",
        node_pattern(&[t, t], &[]),
        vec![Literal::eq_attr(v(0), A, v(1), A)],
        vec![Literal::eq_attr(v(1), B, v(0), B)],
    );
    // Self-loop, two literals on its one variable (the pivot).
    let looped = Dependency::new(
        "loop",
        node_pattern(&[LabelId::WILDCARD], &[(0, 0)]),
        vec![
            Literal::eq_const(v(0), B, 1i64),
            Literal::eq_attr(v(0), B, v(0), B),
        ],
        vec![Literal::eq_const(v(0), A, 0i64)],
    );
    // x -e-> y over `u`: both variables can only be the one `u` node, and
    // its `A` is absent, so `x.A = y.A` fails though x and y coincide.
    let folded_absent = Dependency::new(
        "folded-absent",
        node_pattern(&[u, u], &[(0, 1)]),
        vec![Literal::eq_attr(v(0), A, v(1), A)],
        vec![Literal::eq_const(v(0), B, 0i64)],
    );
    let folded_present = Dependency::new(
        "folded-present",
        node_pattern(&[u, u], &[(0, 1)]),
        vec![Literal::eq_attr(v(0), B, v(1), B)],
        vec![Literal::eq_const(v(1), B, 0i64)],
    );
    // Empty premise, generating consequence: every `t` edge's target needs
    // an `e` successor of label `t` carrying the source's `B`.
    let edge = node_pattern(&[t, t], &[(0, 1)]);
    let mut gen = GenerateConsequence::over(&edge);
    let fresh = gen.add_fresh(t, "f");
    gen.add_edge(v(1), e, fresh);
    gen.push_attr(Literal::eq_attr(fresh, B, v(0), B));
    let generating = Dependency::new("gen", edge, vec![], gen);

    let sigma = DepSet::from_vec(vec![
        chain_rule,
        pair,
        looped,
        folded_absent,
        folded_present,
        generating,
    ]);
    let (hits, violations) = brute_oracle(&g, &sigma);
    // The fixture is not vacuous: every rule but the absent-attribute one
    // has on-premise matches, and rules of each consequence kind fail.
    assert!(hits[0] > 0 && hits[1] > 0 && hits[2] > 0 && hits[4] > 0 && hits[5] > 0);
    assert_eq!(hits[3], 0, "an absent attribute equals nothing");
    for rule in [0, 1, 4, 5] {
        assert!(violations.iter().any(|(r, _)| *r == rule), "rule {rule}");
    }
    assert_detect_equals_brute(&g, &sigma);
}
