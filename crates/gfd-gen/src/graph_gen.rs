//! Random property-graph generation, for the error-detection examples and
//! validation tests.

use crate::gfd_gen::canonical_value;
use crate::schema::Schema;
use gfd_core::{Dependency, Operand};
use gfd_graph::{Graph, NodeId, Value};
use rand::prelude::*;

/// Knobs for graph generation.
#[derive(Clone, Debug)]
pub struct GraphGenConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges (uniform endpoints).
    pub edges: usize,
    /// Probability that a node carries each schema attribute.
    pub attr_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        GraphGenConfig {
            nodes: 100,
            edges: 300,
            attr_prob: 0.4,
            seed: 42,
        }
    }
}

/// Generate a random property graph over `schema`. Attribute values are
/// the canonical constants, so graphs start "clean" with respect to
/// satisfiable-by-construction rule sets.
pub fn random_graph(schema: &Schema, cfg: &GraphGenConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::with_capacity(cfg.nodes);
    for _ in 0..cfg.nodes {
        g.add_node(schema.sample_node_label(&mut rng));
    }
    for _ in 0..cfg.edges {
        let src = NodeId::new(rng.random_range(0..cfg.nodes.max(1)));
        let dst = NodeId::new(rng.random_range(0..cfg.nodes.max(1)));
        g.add_edge(src, schema.sample_edge_label(&mut rng), dst);
    }
    for v in 0..cfg.nodes {
        for &attr in schema.attrs() {
            if rng.random_bool(cfg.attr_prob) {
                g.set_attr(NodeId::new(v), attr, canonical_value(attr));
            }
        }
    }
    g
}

/// Embed a violation of `gfd` into `graph`: add fresh nodes realizing the
/// pattern, set attributes so the premise holds, then break the first
/// consequence literal. Returns the planted node ids (pattern-variable
/// order).
///
/// Wildcard node/edge labels are instantiated with schema samples.
pub fn plant_violation(
    graph: &mut Graph,
    gfd: &Dependency,
    schema: &Schema,
    seed: u64,
) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let planted: Vec<NodeId> = gfd
        .pattern
        .vars()
        .map(|v| {
            let label = gfd.pattern.label(v);
            let label = if label.is_wildcard() {
                schema.sample_node_label(&mut rng)
            } else {
                label
            };
            graph.add_node(label)
        })
        .collect();
    for e in gfd.pattern.edges() {
        let label = if e.label.is_wildcard() {
            schema.sample_edge_label(&mut rng)
        } else {
            e.label
        };
        graph.add_edge(planted[e.src.index()], label, planted[e.dst.index()]);
    }
    // Satisfy the premise on concrete values.
    for lit in &gfd.premise {
        let node = planted[lit.var.index()];
        match &lit.rhs {
            Operand::Const(c) => graph.set_attr_id(node, lit.attr, *c),
            Operand::Attr(v2, a2) => {
                let shared = Value::str(format!("planted_{seed}"));
                graph.set_attr(node, lit.attr, shared.clone());
                graph.set_attr(planted[v2.index()], *a2, shared);
            }
        }
    }
    // A generating consequence is violated as planted: the fresh nodes
    // realize nothing of its target.
    let Some(consequence) = gfd.consequence.literals() else {
        return planted;
    };
    // Break one consequence literal *without* touching attributes the
    // premise pinned (otherwise the planted match stops satisfying X and
    // is no violation at all).
    let premise_keys: Vec<(usize, gfd_graph::AttrId)> = gfd
        .premise
        .iter()
        .flat_map(|l| {
            let mut ks = vec![(l.var.index(), l.attr)];
            if let Operand::Attr(v2, a2) = &l.rhs {
                ks.push((v2.index(), *a2));
            }
            ks
        })
        .collect();
    let pinned = |var: usize, attr: gfd_graph::AttrId| premise_keys.contains(&(var, attr));
    for lit in consequence {
        let node = planted[lit.var.index()];
        match &lit.rhs {
            Operand::Const(c) => {
                if pinned(lit.var.index(), lit.attr) {
                    continue;
                }
                graph.set_attr(node, lit.attr, Value::str(format!("broken_{c}")));
                break;
            }
            Operand::Attr(v2, a2) => {
                let other = planted[v2.index()];
                if !pinned(lit.var.index(), lit.attr) {
                    graph.set_attr(node, lit.attr, Value::str("broken_left"));
                    if graph.attr(other, *a2).is_none() {
                        graph.set_attr(other, *a2, Value::str("broken_right"));
                    }
                    break;
                }
                if !pinned(v2.index(), *a2) {
                    graph.set_attr(other, *a2, Value::str("broken_right"));
                    if graph.attr(node, lit.attr).is_none() {
                        graph.set_attr(node, lit.attr, Value::str("broken_left"));
                    }
                    break;
                }
            }
        }
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd_gen::{generate_sigma, GfdGenConfig};
    use crate::schema::Dataset;
    use gfd_core::{find_violations, graph_satisfies, DepSet, Literal};
    use gfd_graph::{Pattern, Vocab};

    #[test]
    fn graphs_have_requested_shape() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        let g = random_graph(
            &schema,
            &GraphGenConfig {
                nodes: 50,
                edges: 120,
                attr_prob: 0.5,
                seed: 1,
            },
        );
        assert_eq!(g.node_count(), 50);
        // Duplicate (src,label,dst) triples collapse, so ≤ 120.
        assert!(g.edge_count() <= 120 && g.edge_count() > 60);
        assert!(g.attr_count() > 0);
    }

    #[test]
    fn planted_violation_is_detected() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        // A concrete rule: t-nodes linked by e must share attr values.
        let t = schema.node_labels()[0];
        let e = schema.edge_labels()[0];
        let a = schema.attrs()[0];
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        let gfd = Dependency::new(
            "share",
            p,
            vec![Literal::eq_const(x, a, canonical_value(a))],
            vec![Literal::eq_attr(x, a, y, a)],
        );

        let mut g = Graph::new();
        assert!(graph_satisfies(&g, &gfd));
        let planted = plant_violation(&mut g, &gfd, &schema, 9);
        assert_eq!(planted.len(), 2);
        assert!(!graph_satisfies(&g, &gfd));
        let sigma = DepSet::from_vec(vec![gfd]);
        let vs = find_violations(&g, &sigma, 10);
        assert!(!vs.is_empty());
    }

    #[test]
    fn planting_works_for_generated_rules() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        let sigma = generate_sigma(
            &schema,
            &GfdGenConfig {
                count: 5,
                k: 3,
                l: 2,
                seed: 3,
                ..Default::default()
            },
        );
        let mut g = random_graph(&schema, &GraphGenConfig::default());
        for (i, (_, gfd)) in sigma.iter().enumerate() {
            plant_violation(&mut g, gfd, &schema, i as u64);
        }
        // At least one planted violation must be detectable (some may be
        // masked if the consequence also appears elsewhere, but with fresh
        // nodes per plant the first literal stays broken).
        let vs = find_violations(&g, &sigma, 50);
        assert!(!vs.is_empty());
    }
}
