//! The model `sat_with_config` reads out does not depend on how the run
//! was scheduled: on the Exp-1 workload every worker count yields the
//! same population of `GΣ`, and that population satisfies Σ.
//!
//! "The same" is exact for everything Σ forces — structure, which
//! attributes exist, every bound constant, which attributes share a fresh
//! constant — and exact to the byte between two runs at one worker. The
//! *number* a fresh constant gets follows the order keys first entered the
//! relation, which at `p > 1` follows the interleaving (it did before the
//! read-out and the convergence merge were rewritten, too), so across
//! worker counts fresh constants are compared up to a bijection.

use gfd::core::model::is_fresh_id;
use gfd::core::{sat_with_config, ReasonConfig};
use gfd::gen::{real_life_workload, Dataset};
use gfd::graph::{AttrId, Graph, LabelId, NodeId, ValueId};
use std::collections::HashMap;

type Attrs = Vec<(NodeId, AttrId, ValueId)>;

fn structure(g: &Graph) -> (Vec<LabelId>, Vec<(NodeId, LabelId, NodeId)>) {
    (g.nodes().map(|v| g.label(v)).collect(), g.edges().collect())
}

fn attrs(g: &Graph) -> Attrs {
    g.nodes()
        .flat_map(|v| g.attrs(v).iter().map(move |&(a, val)| (v, a, val)))
        .collect()
}

/// Equal attribute for attribute, fresh constants up to a bijection.
fn same_up_to_fresh_renaming(left: &Attrs, right: &Attrs) -> bool {
    let mut forth: HashMap<ValueId, ValueId> = HashMap::new();
    let mut back: HashMap<ValueId, ValueId> = HashMap::new();
    left.len() == right.len()
        && left
            .iter()
            .zip(right)
            .all(|(&(n1, a1, v1), &(n2, a2, v2))| {
                let values_agree = if is_fresh_id(v1) || is_fresh_id(v2) {
                    is_fresh_id(v1)
                        && is_fresh_id(v2)
                        && *forth.entry(v1).or_insert(v2) == v2
                        && *back.entry(v2).or_insert(v1) == v1
                } else {
                    v1 == v2
                };
                (n1, a1) == (n2, a2) && values_agree
            })
}

#[test]
fn the_model_is_the_same_at_every_worker_count() {
    for seed in [7u64, 42] {
        let w = real_life_workload(Dataset::DBpedia, 400, seed, None);
        let model = |workers: usize| -> Graph {
            let result = sat_with_config(&w.sigma, &ReasonConfig::with_workers(workers));
            *match result.outcome {
                gfd::core::SatOutcome::Satisfiable(model) => model,
                other => panic!("seed {seed}, {workers} workers: {other:?}"),
            }
        };
        let base = model(1);
        assert!(gfd::graph_satisfies_all(&base, &w.sigma), "seed {seed}");
        let base_attrs = attrs(&base);
        assert!(base_attrs.iter().any(|&(_, _, v)| is_fresh_id(v)));
        assert!(base_attrs.iter().any(|&(_, _, v)| !is_fresh_id(v)));
        // One worker runs the units in priority order: byte-identical.
        assert_eq!(attrs(&model(1)), base_attrs, "seed {seed}");
        for workers in [2usize, 8] {
            let other = model(workers);
            assert_eq!(structure(&other), structure(&base), "seed {seed}");
            assert!(
                same_up_to_fresh_renaming(&attrs(&other), &base_attrs),
                "seed {seed}: the model at {workers} workers differs from the one at 1"
            );
            assert!(gfd::graph_satisfies_all(&other, &w.sigma), "seed {seed}");
        }
    }
}
