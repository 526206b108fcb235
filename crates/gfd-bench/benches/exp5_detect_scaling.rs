//! Beyond-paper application benchmark: parallel violation detection on
//! data graphs (`gfd-detect`), the error-detection workload the paper's
//! introduction motivates with ϕ1–ϕ4.
//!
//! Sweeps worker count on a planted-violation graph, and shows the TTL
//! splitting effect on a skewed (hub-heavy) graph. Detection reuses the
//! reasoning runtime's ideas — pivoted units, dynamic assignment, TTL
//! splitting — so its scaling shape should mirror Exp-1.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_detect::{detect, DetectConfig};
use gfd_gen::{plant_violation, random_graph, real_life_workload, Dataset, GraphGenConfig};
use gfd_graph::{Graph, LabelId, NodeId};
use std::time::Duration;

fn main() {
    let scale = scale();
    banner(
        "Exp-5 (beyond paper): parallel violation detection",
        "application of §I (inconsistency detection), runtime of §V",
    );

    // Workload: a mined-style rule set and a graph with planted errors.
    let w = real_life_workload(Dataset::DBpedia, 40, 7, None);
    let nodes = match scale.name {
        "full" => 60_000,
        _ => 6_000,
    };
    let mut graph = random_graph(
        &w.schema,
        &GraphGenConfig {
            nodes,
            edges: nodes * 3,
            attr_prob: 0.3,
            seed: 7,
        },
    );
    for (i, (_, gfd)) in w.sigma.iter().take(10).enumerate() {
        plant_violation(&mut graph, gfd, &w.schema, 100 + i as u64);
    }
    println!(
        "\ndata graph: {} nodes, {} edges, {} attrs; {} rules",
        graph.node_count(),
        graph.edge_count(),
        graph.attr_count(),
        w.sigma.len()
    );

    // Baseline: the sequential oracle.
    let seq = time_median(scale.repeats, || {
        gfd_core::find_violations(&graph, &w.sigma, usize::MAX).len()
    });
    println!("sequential find_violations: {}", fmt_duration(seq));

    println!("\ndetection wall time vs workers:");
    let mut table = Table::new(&["p", "time", "speedup", "violations", "units", "splits"]);
    for &p in &scale.workers {
        let config = DetectConfig {
            ttl: scale.default_ttl,
            ..DetectConfig::with_workers(p)
        };
        let mut found = 0usize;
        let mut units = 0u64;
        let mut splits = 0u64;
        let t = time_median(scale.repeats, || {
            let r = detect(&graph, &w.sigma, &config);
            found = r.violations.len();
            units = r.metrics.units_dispatched;
            splits = r.metrics.units_split;
        });
        table.row(vec![
            p.to_string(),
            fmt_duration(t),
            format!("{:.2}x", seq.as_secs_f64() / t.as_secs_f64()),
            found.to_string(),
            units.to_string(),
            splits.to_string(),
        ]);
    }
    table.print();

    // Skew: one hub connected to everything makes one pivot unit huge.
    println!("\nTTL splitting on a skewed (hub) graph, p = 4:");
    let hub_graph = hub_heavy_graph(2_000);
    let mut pat = gfd_graph::Pattern::new();
    let t_label = LabelId(1); // first interned label below
    let x = pat.add_node(t_label, "x");
    let y = pat.add_node(t_label, "y");
    let z = pat.add_node(t_label, "z");
    pat.add_edge(x, LabelId(2), y);
    pat.add_edge(y, LabelId(2), z);
    let a = gfd_graph::AttrId::new(0);
    let sigma = gfd_core::DepSet::from_vec(vec![gfd_core::Dependency::new(
        "chain",
        pat,
        vec![],
        vec![gfd_core::Literal::eq_const(x, a, 1i64)],
    )]);
    let mut table = Table::new(&["TTL", "time", "splits"]);
    for ttl in [
        Duration::ZERO,
        Duration::from_millis(1),
        Duration::from_secs(10),
    ] {
        let config = DetectConfig {
            ttl,
            max_violations: usize::MAX,
            ..DetectConfig::with_workers(4)
        };
        let mut splits = 0u64;
        let t = time_median(scale.repeats, || {
            let r = detect(&hub_graph, &sigma, &config);
            splits = r.metrics.units_split;
        });
        table.row(vec![
            format!("{ttl:?}"),
            fmt_duration(t),
            splits.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: near-linear speedup while cores last (mirrors Fig. 6a), and\n\
         on the skewed graph a large TTL leaves the hub unit to one worker while small\n\
         TTLs spread it — the same straggler story as Fig. 6(k)."
    );
}

/// A star-plus-ring graph: node 0 links to and from everyone; the ring
/// gives every node degree ≥ 2 so chains exist everywhere.
fn hub_heavy_graph(n: usize) -> Graph {
    let t = LabelId(1);
    let e = LabelId(2);
    let mut g = Graph::with_capacity(n);
    for _ in 0..n {
        g.add_node(t);
    }
    let hub = NodeId::new(0);
    for i in 1..n {
        let v = NodeId::new(i);
        g.add_edge(hub, e, v);
        g.add_edge(v, e, NodeId::new(1 + (i % (n - 1))));
    }
    g
}
