//! Property-based tests: the parallel detector against a brute-force
//! oracle on random graphs and rules, across worker counts and TTLs.

#![cfg(test)]

use crate::detector::{detect, DetectConfig};
use gfd_core::{DepSet, Dependency, Literal};
use gfd_graph::{Graph, LabelId, NodeId, Value, VarId};
use proptest::prelude::*;
use std::time::Duration;

/// A small random attributed graph: ≤ 8 nodes over 3 labels, random
/// edges over 2 labels, random `a`-attribute values in 0..3.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..8).prop_flat_map(|n| {
        let labels = proptest::collection::vec(1u32..4, n);
        let edges = proptest::collection::vec(((0..n), 1u32..3, (0..n)), 0..(2 * n));
        let attrs = proptest::collection::vec(proptest::option::of(0i64..3), n);
        (labels, edges, attrs).prop_map(move |(labels, edges, attrs)| {
            let mut g = Graph::new();
            for l in labels {
                g.add_node(LabelId(l));
            }
            for (s, l, d) in edges {
                g.add_edge(NodeId::new(s), LabelId(l), NodeId::new(d));
            }
            for (i, a) in attrs.iter().enumerate() {
                if let Some(v) = a {
                    g.set_attr(NodeId::new(i), gfd_graph::AttrId::new(0), Value::int(*v));
                }
            }
            g
        })
    })
}

/// A random 1–3 node rule whose premise/consequence use attribute 0.
fn arb_rule() -> impl Strategy<Value = Dependency> {
    (
        1usize..4,
        proptest::collection::vec(((0usize..3), 1u32..3, (0usize..3)), 0..3),
        proptest::option::of(0i64..3),
        0i64..3,
    )
        .prop_map(|(k, edges, premise_const, consequence_const)| {
            let a = gfd_graph::AttrId::new(0);
            let mut p = gfd_graph::Pattern::new();
            for i in 0..k {
                // Mix of wildcard and concrete labels.
                let label = if i % 2 == 0 {
                    LabelId(1)
                } else {
                    LabelId::WILDCARD
                };
                p.add_anon_node(label);
            }
            for (s, l, d) in edges {
                p.add_edge(VarId::new(s % k), LabelId(l), VarId::new(d % k));
            }
            let premise = premise_const
                .map(|c| vec![Literal::eq_const(VarId::new(0), a, c)])
                .unwrap_or_default();
            let consequence = vec![Literal::eq_const(VarId::new(k - 1), a, consequence_const)];
            Dependency::new("r", p, premise, consequence)
        })
}

/// Brute-force oracle on top of the sequential library primitive.
fn oracle(graph: &Graph, sigma: &DepSet) -> Vec<(usize, Vec<usize>)> {
    let mut keys: Vec<_> = gfd_core::find_violations(graph, sigma, usize::MAX)
        .into_iter()
        .map(|v| (v.gfd.index(), v.m.iter().map(|n| n.index()).collect()))
        .collect();
    keys.sort();
    keys
}

fn detect_keys(report: &crate::report::DetectionReport) -> Vec<(usize, Vec<usize>)> {
    let mut keys: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.gfd.index(), v.m.iter().map(|n| n.index()).collect()))
        .collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The parallel detector finds exactly the oracle's violations, for
    /// every worker count.
    #[test]
    fn detector_equals_oracle(
        g in arb_graph(),
        rules in proptest::collection::vec(arb_rule(), 1..3),
        workers in 1usize..5,
    ) {
        let sigma = DepSet::from_vec(rules);
        let expected = oracle(&g, &sigma);
        let report = detect(&g, &sigma, &DetectConfig::with_workers(workers));
        prop_assert_eq!(detect_keys(&report), expected);
    }

    /// TTL zero (maximum splitting) changes nothing.
    #[test]
    fn ttl_zero_equals_oracle(
        g in arb_graph(),
        rules in proptest::collection::vec(arb_rule(), 1..3),
    ) {
        let sigma = DepSet::from_vec(rules);
        let expected = oracle(&g, &sigma);
        let config = DetectConfig {
            ttl: Duration::ZERO,
            batch_size: 1,
            ..DetectConfig::with_workers(3)
        };
        let report = detect(&g, &sigma, &config);
        prop_assert_eq!(detect_keys(&report), expected);
    }

    /// Budgets return a subset of real violations, never fabrications.
    #[test]
    fn budget_returns_true_violations(
        g in arb_graph(),
        rules in proptest::collection::vec(arb_rule(), 1..3),
        budget in 1usize..4,
    ) {
        let sigma = DepSet::from_vec(rules);
        let expected = oracle(&g, &sigma);
        let config = DetectConfig {
            max_violations: budget,
            ..DetectConfig::with_workers(2)
        };
        let report = detect(&g, &sigma, &config);
        prop_assert!(report.violations.len() <= budget.max(expected.len()));
        for key in detect_keys(&report) {
            prop_assert!(expected.contains(&key), "fabricated violation {key:?}");
        }
        if expected.len() >= budget {
            prop_assert_eq!(report.violations.len(), budget);
        } else {
            prop_assert_eq!(report.violations.len(), expected.len());
        }
    }
}
