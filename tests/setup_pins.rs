//! Σ's set-up at DBpedia scale, against a definition and against pins:
//!
//! * `GΣ`'s components are a BFS's, and every rule's `pivot_candidates`
//!   equals the host filter read off `GΣ` itself — candidates of the
//!   pivot's label whose component offers every label the pivot's
//!   pattern component needs;
//! * every rule's match plan (steps, anchors, self-loops, strategies,
//!   component roots) digests to the numbers pinned here, on `GΣ` and on
//!   the hub graph detection runs on.

use gfd::core::{build_plans_lazy, choose_pivot, CanonicalGraph};
use gfd::gen::{hub_workload, real_life_workload, Dataset, HubGenConfig};
use gfd::graph::LabelIndex;
use gfd::matching::{AnchorDir, IntersectStrategy, MatchPlan};
use gfd::prelude::*;
use std::collections::VecDeque;

/// Undirected components of `graph` by BFS, numbered by least node: the
/// canonical components as a definition, independent of how
/// `CanonicalGraph` derives them.
fn naive_components(graph: &Graph) -> Vec<u32> {
    let mut comp = vec![u32::MAX; graph.node_count()];
    let mut count = 0;
    for start in graph.nodes() {
        if comp[start.index()] != u32::MAX {
            continue;
        }
        comp[start.index()] = count;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &(_, u) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
                if comp[u.index()] == u32::MAX {
                    comp[u.index()] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    comp
}

/// Per canonical component (`comp`, per node): its node labels and its
/// edge labels.
fn offered(graph: &Graph, comp: &[u32]) -> Vec<(Vec<LabelId>, Vec<LabelId>)> {
    let mut offered: Vec<(Vec<LabelId>, Vec<LabelId>)> = Vec::new();
    for v in graph.nodes() {
        let c = comp[v.index()] as usize;
        offered.resize_with(offered.len().max(c + 1), Default::default);
        offered[c].0.push(graph.label(v));
    }
    for (src, label, _) in graph.edges() {
        offered[comp[src.index()] as usize].1.push(label);
    }
    offered
}

/// Which variables share `pivot`'s pattern component: grown from the
/// pivot over the edge list until no edge leaves it.
fn pattern_component(pattern: &Pattern, pivot: VarId) -> Vec<bool> {
    let mut inside = vec![false; pattern.node_count()];
    inside[pivot.index()] = true;
    let mut grew = true;
    while grew {
        grew = false;
        for e in pattern.edges() {
            let (s, d) = (e.src.index(), e.dst.index());
            if inside[s] != inside[d] {
                (inside[s], inside[d], grew) = (true, true, true);
            }
        }
    }
    inside
}

/// The host filter by definition: a candidate of the pivot's label is
/// kept iff its component (`comp`) offers every concrete node and edge
/// label of the pivot's pattern component, and an edge if that
/// component has one.
fn reference(
    canon: &CanonicalGraph,
    comp: &[u32],
    offered: &[(Vec<LabelId>, Vec<LabelId>)],
    pattern: &Pattern,
    pivot: VarId,
) -> Vec<NodeId> {
    let reach = pattern_component(pattern, pivot);
    let inside = |v: VarId| reach[v.index()];
    let hosts = |c: u32| {
        let (nodes, edges) = &offered[c as usize];
        let node_ok = pattern
            .vars()
            .filter(|&v| inside(v) && !pattern.label(v).is_wildcard())
            .all(|v| nodes.contains(&pattern.label(v)));
        let edge_ok = (pattern.edges().iter().filter(|e| inside(e.src)))
            .all(|e| !edges.is_empty() && (e.label.is_wildcard() || edges.contains(&e.label)));
        node_ok && edge_ok
    };
    let candidates = canon.index.candidates(pattern.label(pivot)).iter();
    candidates
        .copied()
        .filter(|&z| hosts(comp[z.index()]))
        .collect()
}

#[test]
fn pivot_candidates_equal_the_reference_on_dbpedia_1000() {
    for seed in [42u64, 7] {
        let w = real_life_workload(Dataset::DBpedia, 1000, seed, None);
        let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
        let comp = naive_components(&canon.graph);
        for v in canon.graph.nodes() {
            assert_eq!(canon.component_of(v), comp[v.index()], "seed {seed}");
        }
        let offered = offered(&canon.graph, &comp);
        let (pivots, _) = build_plans_lazy(&w.sigma, &canon.index);
        let mut kept = 0;
        for (id, rule) in w.sigma.iter() {
            let pivot = pivots[id.index()];
            let got = canon.pivot_candidates(&rule.pattern, pivot);
            let want = reference(&canon, &comp, &offered, &rule.pattern, pivot);
            assert_eq!(got, want, "seed {seed}, rule {}", rule.name);
            kept += got.len();
        }
        // The filter is not vacuous: it keeps a fraction of the label-wide
        // candidates, and at least each rule's own pivot node.
        let label_wide: usize = (w.sigma.iter())
            .map(|(id, r)| canon.index.frequency(r.pattern.label(pivots[id.index()])))
            .sum();
        assert!(
            kept >= w.sigma.len() && kept < label_wide / 2,
            "seed {seed}"
        );
    }
}

/// FNV-1a over every plan's steps (var, anchors as pos/label/dir,
/// self-loops, strategy) and component roots, `None` plans included.
fn plan_digest<'p>(plans: impl IntoIterator<Item = Option<&'p MatchPlan>>) -> u64 {
    let mut words: Vec<usize> = Vec::new();
    for plan in plans {
        let Some(plan) = plan else {
            words.push(usize::MAX);
            continue;
        };
        words.push(plan.len());
        for (pos, step) in plan.steps().iter().enumerate() {
            words.push(step.var.index());
            let anchors = plan.anchors(pos);
            words.push(anchors.len());
            for a in anchors {
                let dir = usize::from(a.dir == AnchorDir::ToAnchor);
                words.extend([a.pos, a.label.index(), dir]);
            }
            let self_loops = plan.self_loops(pos);
            words.push(self_loops.len());
            words.extend(self_loops.iter().map(|l| l.index()));
            words.push(match step.strategy {
                IntersectStrategy::TwoPointer => 0,
                IntersectStrategy::Gallop => 1,
                IntersectStrategy::Bitset => 2,
            });
        }
        words.push(plan.component_roots().count());
        words.extend(plan.component_roots());
    }
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Plans, pivots and strategies are a function of the pattern and the
/// statistics: the builder may change how it stores a plan, never the
/// plan. Recorded on the per-step-`Vec` builder.
#[test]
fn plan_shapes_are_pinned() {
    // (seed, plans built, digest) on DBpedia-1000's `GΣ`.
    let pins: [(u64, usize, u64); 2] = [
        (42, 1000, 9802636402785686467),
        (7, 1000, 10662501706706776147),
    ];
    for (seed, built, digest) in pins {
        let w = real_life_workload(Dataset::DBpedia, 1000, seed, None);
        let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
        let (_, plans) = build_plans_lazy(&w.sigma, &canon.index);
        let got = (
            plans.iter().flatten().count(),
            plan_digest(plans.iter().map(Option::as_ref)),
        );
        assert_eq!(got, (built, digest), "seed {seed}: (plans, digest)");
    }
    // The hub rules on the hub graph, pivoted as detection pivots them.
    let w = hub_workload(&HubGenConfig {
        nodes: 4_000,
        hubs: 16,
        hub_degree: 96,
        rules: 12,
        ..HubGenConfig::default()
    });
    let index = LabelIndex::build(&w.graph);
    let plans: Vec<MatchPlan> = (w.sigma.iter())
        .map(|(_, r)| {
            MatchPlan::build(
                &r.pattern,
                Some(choose_pivot(&r.pattern, &index)),
                Some(&index),
            )
        })
        .collect();
    let bitset = (plans.iter().flat_map(MatchPlan::steps))
        .filter(|s| s.strategy == IntersectStrategy::Bitset)
        .count();
    assert_eq!(
        (bitset, plan_digest(plans.iter().map(Some))),
        (6, 15406143122119731993),
        "hub: (bitset steps, digest)"
    );
}
