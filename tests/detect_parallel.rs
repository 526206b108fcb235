//! The parallel detector against the sequential oracle: on any graph and
//! rule set, `gfd-detect` must find exactly the violations that
//! `gfd_core::find_violations` finds, at every worker count, TTL and
//! batch size.

use gfd::detect::{detect, DetectConfig};
use gfd::gen::{plant_violation, random_graph, GraphGenConfig};
use gfd::prelude::*;
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
        assert!(stats.premise_hits <= stats.matches);
        assert!(stats.violations <= stats.premise_hits);
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
