//! Incremental ≡ from-scratch equivalence: random delta streams applied
//! through `gfd-incr` must leave exactly the violation set a full
//! re-freeze + `gfd_detect::detect` computes on the mutated graph, at
//! p ∈ {1, 4}, after every batch — including deletion-heavy streams.
//!
//! This is the contract the whole streaming pipeline stands on: the
//! dirty-frontier argument (DESIGN.md §8) says nothing outside the
//! re-run region can change, and this suite is where that claim meets
//! arbitrary topology + attribute churn.

use gfd::detect::{detect, DetectConfig, ViolationRecord};
use gfd::gen::{delta_stream, random_graph, DeltaStreamConfig, GraphGenConfig, Schema};
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

fn violation_keys(vs: &[ViolationRecord]) -> Vec<(gfd::graph::GfdId, Box<[NodeId]>)> {
    vs.iter().map(|v| (v.gfd, v.m.clone())).collect()
}

/// Drive one stream through both pipelines and compare after each batch.
fn check_stream(seed: u64, stream_cfg: DeltaStreamConfig, compact_fraction: f64) {
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
            let full = detect(&reference, &sigma, &DetectConfig::with_workers(p));
            assert_eq!(
                violation_keys(incr.violations()),
                violation_keys(&full.violations),
                "divergence at p={p}, batch {i}, seed {seed}"
            );
        }
    }
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
}
