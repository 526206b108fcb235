//! Hub-heavy workloads: power-law degree distributions plus
//! string-attribute-heavy rules.
//!
//! Real social and knowledge graphs are scale-free: a handful of hub
//! nodes collect hundreds of neighbours while the long tail has one or
//! two. That shape is exactly where the matcher's anchored-expansion
//! intersections degrade — a doubly-anchored step on two hubs walks two
//! long sorted adjacency lists per frame — and where the bitset merge
//! path (`gfd_match::IntersectStrategy::Bitset`, DESIGN.md §15) pays
//! off. The rules this preset generates are deliberately string-heavy:
//! every premise and consequence literal compares interned string
//! values, so the workload also stresses the `ValueId` literal-check
//! fast path rather than integer constants.
//!
//! [`hub_workload`] is deterministic per seed: graph, rule set and the
//! violation set detection finds on it are reproducible, which lets the
//! paper bench's `exp5_detect` rows assert fingerprint invariance across
//! worker counts.

use crate::schema::{Dataset, Schema};
use gfd_core::{DepSet, Dependency, Literal};
use gfd_graph::{Graph, NodeId, Pattern, Value, Vocab};
use rand::prelude::*;
use std::collections::BTreeSet;

/// Knobs for hub-workload generation.
#[derive(Clone, Debug)]
pub struct HubGenConfig {
    /// Total node count.
    pub nodes: usize,
    /// Number of hub nodes (the power-law head).
    pub hubs: usize,
    /// Out-degree of each hub. Set this at or above
    /// `gfd_match::BITSET_ANCHOR_DEGREE` (64) to put doubly-anchored
    /// plan steps into the bitset-merge regime.
    pub hub_degree: usize,
    /// Pareto shape for the tail degrees (> 1; larger = thinner tail).
    pub tail_alpha: f64,
    /// Number of distinct string values the heavy attributes draw from.
    pub string_vocab: usize,
    /// Number of generated rules (alternating diamond/chain shapes).
    pub rules: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HubGenConfig {
    fn default() -> Self {
        HubGenConfig {
            nodes: 2_000,
            hubs: 8,
            hub_degree: 96,
            tail_alpha: 2.5,
            string_vocab: 24,
            rules: 6,
            seed: 42,
        }
    }
}

/// A hub workload: the graph, the string-heavy rule set, and the shared
/// vocabulary/schema they were generated over.
#[derive(Clone, Debug)]
pub struct HubWorkload {
    /// Display name used in benchmark tables.
    pub name: String,
    /// Vocabulary shared by graph and rules.
    pub vocab: Vocab,
    /// The (Pokec-like) schema labels were drawn from.
    pub schema: Schema,
    /// The power-law data graph.
    pub graph: Graph,
    /// String-attribute-heavy rules over the graph's labels.
    pub sigma: DepSet,
}

/// Build the hub workload for `cfg`: a Pokec-like graph whose first
/// `cfg.hubs` nodes are hubs with `cfg.hub_degree` out-neighbours drawn
/// from a shared pool (so any two hubs overlap on roughly half their
/// neighbourhoods), a Pareto-distributed tail, string attributes on
/// every node, and rules whose literals all compare strings.
pub fn hub_workload(cfg: &HubGenConfig) -> HubWorkload {
    let mut vocab = Vocab::new();
    let schema = Schema::new(Dataset::Pokec, &mut vocab);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let person = schema.node_labels()[0];
    let follows = schema.edge_labels()[0];
    let nodes = cfg.nodes.max(cfg.hubs + 2 * cfg.hub_degree + 1);
    let hubs = cfg.hubs.min(nodes / 4).max(1);

    // One label for every node: candidate sets start label-wide, so the
    // anchored steps (not the seed scan) dominate matching cost.
    let mut g = Graph::with_capacity(nodes);
    for _ in 0..nodes {
        g.add_node(person);
    }

    // Hub head: each hub's out-neighbours are distinct draws from a
    // pool twice its degree, directly after the hub block. Two hubs
    // therefore share ~half their targets — the overlap a
    // doubly-anchored diamond step intersects.
    let pool_len = (2 * cfg.hub_degree).min(nodes - hubs);
    let degree = cfg.hub_degree.min(pool_len);
    for h in 0..hubs {
        let mut targets = BTreeSet::new();
        while targets.len() < degree {
            targets.insert(hubs + rng.random_range(0..pool_len));
        }
        for t in targets {
            g.add_edge(NodeId::new(h), follows, NodeId::new(t));
        }
    }

    // Power-law tail: Pareto out-degrees, mostly 0–2, occasionally a
    // mid-degree node; uniform targets keep hubs collecting in-edges.
    for v in hubs..nodes {
        let u: f64 = rng.random::<f64>().max(1e-9);
        let deg = (u.powf(-1.0 / (cfg.tail_alpha - 1.0)) - 1.0).round() as usize;
        for _ in 0..deg.min(12) {
            let dst = rng.random_range(0..nodes);
            g.add_edge(NodeId::new(v), follows, NodeId::new(dst));
        }
    }

    // String-heavy attributes on every node. `country` is skew-drawn
    // from a small vocabulary (cubing the uniform deviate piles mass on
    // low indices, so the rule constants below select many nodes);
    // `name` repeats across the graph, so eq_attr premises join on
    // interned strings rather than unique values.
    let vocab_size = cfg.string_vocab.max(2);
    let country = schema.attrs()[2];
    let name = schema.attrs()[5];
    let name_period = (nodes / 4).max(1);
    for v in 0..nodes {
        let idx = ((rng.random::<f64>().powf(3.0)) * vocab_size as f64) as usize;
        g.set_attr(
            NodeId::new(v),
            country,
            Value::str(format!("hub_country_{:02}", idx.min(vocab_size - 1))),
        );
        g.set_attr(
            NodeId::new(v),
            name,
            Value::str(format!("hub_name_{}", v % name_period)),
        );
    }

    // Rules, alternating two shapes — every literal compares strings:
    //  * diamond `w → {x, y} → z`: once w, x, y are bound the z-step
    //    carries two anchors; with x, y on hubs both adjacencies are
    //    fat, which is the regime planning routes to the bitset merge;
    //  * chain `x → y`: an eq_attr join on the repeating `name` values,
    //    all-pairs string equality on interned ids.
    let mut rules = Vec::with_capacity(cfg.rules);
    for r in 0..cfg.rules.max(1) {
        let c_x = format!("hub_country_{:02}", r % vocab_size);
        let c_y = format!("hub_country_{:02}", (r + 1) % vocab_size);
        if r % 2 == 0 {
            let mut p = Pattern::new();
            let w = p.add_node(person, "w");
            let x = p.add_node(person, "x");
            let y = p.add_node(person, "y");
            let z = p.add_node(person, "z");
            p.add_edge(w, follows, x);
            p.add_edge(w, follows, y);
            p.add_edge(x, follows, z);
            p.add_edge(y, follows, z);
            rules.push(Dependency::new(
                format!("hub_diamond_{r}"),
                p,
                vec![
                    Literal::eq_const(x, country, Value::str(&c_x)),
                    Literal::eq_const(y, country, Value::str(&c_y)),
                ],
                vec![Literal::eq_attr(z, country, x, country)],
            ));
        } else {
            let mut p = Pattern::new();
            let x = p.add_node(person, "x");
            let y = p.add_node(person, "y");
            p.add_edge(x, follows, y);
            rules.push(Dependency::new(
                format!("hub_chain_{r}"),
                p,
                vec![Literal::eq_attr(x, name, y, name)],
                vec![Literal::eq_attr(x, country, y, country)],
            ));
        }
    }

    HubWorkload {
        name: format!("hub(|V|={nodes},hubs={hubs},deg={degree})"),
        vocab,
        schema,
        graph: g,
        sigma: DepSet::from_vec(rules),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::find_violations;
    use gfd_graph::ValueId;

    fn out_degree(g: &Graph, v: usize) -> usize {
        g.out_edges(NodeId::new(v)).len()
    }

    #[test]
    fn hub_workload_is_reproducible() {
        let a = hub_workload(&HubGenConfig::default());
        let b = hub_workload(&HubGenConfig::default());
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.graph.attr_count(), b.graph.attr_count());
        assert_eq!(a.sigma.len(), b.sigma.len());
        for ((_, x), (_, y)) in a.sigma.iter().zip(b.sigma.iter()) {
            assert_eq!(x.premise, y.premise);
            assert_eq!(x.consequence.literals(), y.consequence.literals());
        }
    }

    #[test]
    fn degrees_are_power_law_with_hub_head() {
        let cfg = HubGenConfig::default();
        let w = hub_workload(&cfg);
        // Every hub's out-degree is the configured head degree — the
        // regime gfd_match::BITSET_ANCHOR_DEGREE (= 64) gates on.
        for h in 0..cfg.hubs {
            assert!(
                out_degree(&w.graph, h) >= cfg.hub_degree,
                "hub {h} has degree {}",
                out_degree(&w.graph, h)
            );
        }
        // The tail is thin: the median non-hub out-degree is ≤ 2.
        let mut tail: Vec<usize> = (cfg.hubs..w.graph.node_count())
            .map(|v| out_degree(&w.graph, v))
            .collect();
        tail.sort_unstable();
        assert!(tail[tail.len() / 2] <= 2, "tail median too fat");
        // And hubs overlap: the first two hubs share a sizable chunk of
        // their neighbourhoods (what the bitset merge intersects).
        let neigh = |h: usize| -> BTreeSet<NodeId> {
            w.graph
                .out_edges(NodeId::new(h))
                .iter()
                .map(|&(_, n)| n)
                .collect()
        };
        let shared = neigh(0).intersection(&neigh(1)).count();
        assert!(
            shared >= cfg.hub_degree / 4,
            "hubs share only {shared} neighbours"
        );
    }

    #[test]
    fn attributes_are_string_heavy_and_interned() {
        let cfg = HubGenConfig::default();
        let w = hub_workload(&cfg);
        let country = w.schema.attrs()[2];
        // Distinct country values stay within the configured vocabulary
        // — repeated values share one interned id each.
        let distinct: BTreeSet<u32> = (0..w.graph.node_count())
            .filter_map(|v| w.graph.attr(NodeId::new(v), country))
            .map(ValueId::raw)
            .collect();
        assert!(!distinct.is_empty());
        assert!(
            distinct.len() <= cfg.string_vocab,
            "{} distinct countries for vocab {}",
            distinct.len(),
            cfg.string_vocab
        );
        // Every rule literal is a string comparison: constants resolve
        // to interned strings, not ints.
        for (_, gfd) in w.sigma.iter() {
            for lit in gfd
                .premise
                .iter()
                .chain(gfd.consequence.literals().unwrap())
            {
                if let gfd_core::Operand::Const(c) = &lit.rhs {
                    assert!(
                        matches!(c.resolve(), Value::Str(_)),
                        "non-string constant in {}",
                        gfd.name
                    );
                }
            }
        }
    }

    #[test]
    fn violations_exist_and_are_deterministic() {
        let cfg = HubGenConfig {
            nodes: 600,
            hub_degree: 72,
            ..HubGenConfig::default()
        };
        let w = hub_workload(&cfg);
        let a = find_violations(&w.graph, &w.sigma, usize::MAX);
        assert!(!a.is_empty(), "hub workload should be naturally violated");
        let w2 = hub_workload(&cfg);
        let b = find_violations(&w2.graph, &w2.sigma, usize::MAX);
        assert_eq!(a.len(), b.len());
    }
}
