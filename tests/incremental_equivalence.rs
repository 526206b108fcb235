//! Incremental ≡ from-scratch equivalence: random delta streams applied
//! through `gfd-incr` must leave exactly the violation set a full
//! re-freeze + `gfd_detect::detect` computes on the mutated graph, at
//! p ∈ {1, 4}, after every batch — including deletion-heavy streams.
//!
//! This is the contract the whole streaming pipeline stands on: the
//! dirty-frontier argument (DESIGN.md §8) says nothing outside the
//! re-run region can change, and this suite is where that claim meets
//! arbitrary topology + attribute churn.

use gfd::core::GenerateConsequence;
use gfd::detect::{detect, DetectConfig, RulePlans, ViolationRecord};
use gfd::gen::{
    delta_stream, plant_violation, random_graph, real_life_workload, Dataset, DeltaStreamConfig,
    GraphGenConfig, Schema,
};
use gfd::graph::{DeltaBatch, LabelIndex};
use gfd::incr::{IncrConfig, IncrementalDetector};
use gfd::prelude::*;
use proptest::prelude::*;

/// Concrete rules of radius 0, 1 and 2 over the Tiny schema: a constant
/// check, an equality across an edge, and an equality across a 2-path.
fn rules(schema: &Schema) -> DepSet {
    let t0 = schema.node_labels()[0];
    let t1 = schema.node_labels()[1 % schema.node_labels().len()];
    let e0 = schema.edge_labels()[0];
    let e1 = schema.edge_labels()[1 % schema.edge_labels().len()];
    let a0 = schema.attrs()[0];
    let a1 = schema.attrs()[1 % schema.attrs().len()];

    let mut p1 = Pattern::new();
    let x = p1.add_node(t0, "x");
    let r1 = Dependency::new(
        "const",
        p1,
        vec![],
        vec![Literal::eq_const(x, a0, gfd::gen::canonical_value(a0))],
    );

    let mut p2 = Pattern::new();
    let x = p2.add_node(t0, "x");
    let y = p2.add_node(t1, "y");
    p2.add_edge(x, e0, y);
    let r2 = Dependency::new("edge-eq", p2, vec![], vec![Literal::eq_attr(x, a0, y, a0)]);

    let mut p3 = Pattern::new();
    let x = p3.add_node(LabelId::WILDCARD, "x");
    let y = p3.add_node(t1, "y");
    let z = p3.add_node(LabelId::WILDCARD, "z");
    p3.add_edge(x, e0, y);
    p3.add_edge(y, e1, z);
    let r3 = Dependency::new("path-eq", p3, vec![], vec![Literal::eq_attr(x, a1, z, a1)]);

    DepSet::from_vec(vec![r1, r2, r3])
}

/// Rules that repeat two patterns with different constants: the edge
/// pattern four times (two constants each side, one rule twice) and once
/// more with a generating consequence, the 2-path twice. Detection runs
/// one search per pattern and consequence kind; the incremental engine
/// seeds units per such group while it re-runs and evicts per rule.
fn shared_rules(schema: &Schema) -> DepSet {
    let t0 = schema.node_labels()[0];
    let t1 = schema.node_labels()[1 % schema.node_labels().len()];
    let e0 = schema.edge_labels()[0];
    let e1 = schema.edge_labels()[1 % schema.edge_labels().len()];
    let a0 = schema.attrs()[0];
    let a1 = schema.attrs()[1 % schema.attrs().len()];
    let (ok, bad) = (gfd::gen::canonical_value, gfd::gen::conflicting_value);

    let mut edge = Pattern::new();
    let x = edge.add_node(t0, "x");
    let y = edge.add_node(t1, "y");
    edge.add_edge(x, e0, y);
    let mut rules = Vec::new();
    for (i, c) in [ok(a0), bad(a0), ok(a0)].into_iter().enumerate() {
        rules.push(Dependency::new(
            format!("edge-{i}"),
            edge.clone(),
            vec![Literal::eq_const(x, a0, c)],
            vec![Literal::eq_const(y, a1, ok(a1))],
        ));
    }
    rules.push(Dependency::new(
        "edge-join",
        edge.clone(),
        vec![Literal::eq_const(y, a1, bad(a1))],
        vec![Literal::eq_attr(x, a0, y, a0)],
    ));
    let mut gen = GenerateConsequence::over(&edge);
    let z = gen.add_fresh(t0, "z");
    gen.add_edge(y, e1, z);
    rules.push(Dependency::new(
        "edge-gen",
        edge,
        vec![Literal::eq_const(x, a1, ok(a1))],
        gen,
    ));

    let mut path = Pattern::new();
    let x = path.add_node(LabelId::WILDCARD, "x");
    let y = path.add_node(t1, "y");
    let z = path.add_node(LabelId::WILDCARD, "z");
    path.add_edge(x, e0, y);
    path.add_edge(y, e1, z);
    for (i, c) in [ok(a1), bad(a1)].into_iter().enumerate() {
        rules.push(Dependency::new(
            format!("path-{i}"),
            path.clone(),
            vec![Literal::eq_const(y, a1, c)],
            vec![Literal::eq_attr(x, a0, z, a0)],
        ));
    }
    DepSet::from_vec(rules)
}

/// The fixture is not vacuous: three groups (four literal edge rules, the
/// generating one, the two paths), and violations of several members of
/// one group on a stream's starting graph (the rules on conflicting
/// constants match only once a stream writes one).
#[test]
fn shared_rules_group_and_violate() {
    let mut vocab = Vocab::new();
    let schema = Schema::new(gfd::gen::Dataset::Tiny, &mut vocab);
    let graph = random_graph(
        &schema,
        &GraphGenConfig {
            nodes: 40,
            edges: 120,
            attr_prob: 0.6,
            seed: 7,
        },
    );
    let sigma = shared_rules(&schema);
    let plans = RulePlans::build(&sigma, &LabelIndex::build(&graph));
    let sizes: Vec<usize> = plans.groups.iter().map(|g| g.members.len()).collect();
    assert_eq!(sizes, [4, 1, 2]);
    let report = detect(&graph, &sigma, &DetectConfig::with_workers(2));
    let violated: Vec<usize> = (0..sigma.len())
        .filter(|&i| report.per_rule[i].violations > 0)
        .collect();
    assert!(
        violated.iter().filter(|&&i| i < 4).count() >= 2,
        "{violated:?}"
    );
}

fn violation_keys(vs: &[ViolationRecord]) -> Vec<(gfd::graph::GfdId, Box<[NodeId]>)> {
    vs.iter().map(|v| (v.gfd, v.m.clone())).collect()
}

/// Drive one stream through both pipelines and compare after each batch.
fn check_stream(seed: u64, stream_cfg: DeltaStreamConfig, compact_fraction: f64) {
    check_stream_with(rules, seed, stream_cfg, compact_fraction);
}

fn check_stream_with(
    rules: fn(&Schema) -> DepSet,
    seed: u64,
    stream_cfg: DeltaStreamConfig,
    compact_fraction: f64,
) {
    let mut vocab = Vocab::new();
    let schema = Schema::new(gfd::gen::Dataset::Tiny, &mut vocab);
    let graph = random_graph(
        &schema,
        &GraphGenConfig {
            nodes: 40,
            edges: 120,
            attr_prob: 0.6,
            seed,
        },
    );
    let sigma = rules(&schema);
    let batches = delta_stream(&graph, &schema, &stream_cfg);
    compare_stream(&graph, &sigma, &batches, compact_fraction, seed);
}

/// Apply `batches` through `gfd-incr` at p ∈ {1, 4} and compare the live
/// set with a from-scratch `detect` on the mutated graph after each.
fn compare_stream(
    graph: &Graph,
    sigma: &DepSet,
    batches: &[DeltaBatch],
    compact_fraction: f64,
    seed: u64,
) {
    for p in [1usize, 4] {
        let mut incr = IncrementalDetector::new(
            graph.clone(),
            sigma.clone(),
            IncrConfig {
                detect: DetectConfig::with_workers(p),
                compact_fraction,
            },
        );
        let mut reference = graph.clone();
        for (i, batch) in batches.iter().enumerate() {
            incr.apply(batch);
            batch.apply_to_graph(&mut reference);
            let full = detect(&reference, sigma, &DetectConfig::with_workers(p));
            assert_eq!(
                violation_keys(incr.violations()),
                violation_keys(&full.violations),
                "divergence at p={p}, batch {i}, seed {seed}"
            );
        }
    }
}

/// The Tiny fixtures pivot on the wildcard or on common labels, so their
/// frontier never searches back from a pivot. `stream_deltas`' rules do:
/// 40 DBpedia-schema rules, each pivoting on a rare label, over a
/// 2 500-node graph with planted violations and twelve mixed batches.
#[test]
fn dbpedia_stream_stays_equivalent() {
    let w = real_life_workload(Dataset::DBpedia, 40, 7, None);
    let mut graph = random_graph(
        &w.schema,
        &GraphGenConfig {
            nodes: 2_500,
            edges: 7_500,
            attr_prob: 0.3,
            seed: 42,
        },
    );
    for (i, (_, gfd)) in w.sigma.iter().take(10).enumerate() {
        plant_violation(&mut graph, gfd, &w.schema, 600 + i as u64);
    }
    let batches = delta_stream(
        &graph,
        &w.schema,
        &DeltaStreamConfig {
            batches: 12,
            edge_fraction: 0.004,
            seed: 1_042,
            ..DeltaStreamConfig::default()
        },
    );
    let seeded = detect(&graph, &w.sigma, &DetectConfig::with_workers(2));
    assert!(!seeded.violations.is_empty(), "no violation to carry over");
    compare_stream(&graph, &w.sigma, &batches, 0.25, 42);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed streams: inserts, deletes, attribute writes, new nodes.
    #[test]
    fn incremental_equals_full_redetect(seed in 0u64..1_000_000) {
        check_stream(
            seed,
            DeltaStreamConfig {
                batches: 3,
                edge_fraction: 0.05,
                seed: seed ^ 0x5eed,
                ..Default::default()
            },
            0.25,
        );
    }

    /// Deletion-heavy streams (tombstone-dominated overlays).
    #[test]
    fn deletion_heavy_streams_stay_equivalent(seed in 0u64..1_000_000) {
        let mut cfg = DeltaStreamConfig::deletion_heavy(seed ^ 0xde1);
        cfg.batches = 3;
        cfg.edge_fraction = 0.08;
        check_stream(seed, cfg, 0.25);
    }

    /// A tiny compaction threshold forces a re-freeze nearly every
    /// batch: compaction must be invisible to the result.
    #[test]
    fn aggressive_compaction_is_invisible(seed in 0u64..1_000_000) {
        check_stream(
            seed,
            DeltaStreamConfig {
                batches: 3,
                edge_fraction: 0.05,
                seed: seed ^ 0xc0,
                ..Default::default()
            },
            0.001,
        );
    }

    /// Patterns repeated with different constants (and one rule twice):
    /// after every batch the live set equals a from-scratch `detect`.
    #[test]
    fn shared_pattern_rules_stay_equivalent(seed in 0u64..1_000_000) {
        check_stream_with(
            shared_rules,
            seed,
            DeltaStreamConfig {
                batches: 3,
                edge_fraction: 0.05,
                seed: seed ^ 0x5a4e,
                ..Default::default()
            },
            0.25,
        );
    }
}
