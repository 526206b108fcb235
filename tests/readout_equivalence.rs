//! The model `sat_with_config` reads out does not depend on how the run
//! was scheduled: on the Exp-1 workload every worker count yields the
//! same population of `GΣ`, byte for byte, and that population satisfies
//! Σ.
//!
//! "The same" includes the fresh constants: the read-out numbers each
//! unbound class by its least key, which neither the unit order nor the
//! workers' interleaving moves.

use gfd::core::model::is_fresh_id;
use gfd::core::{sat_with_config, ReasonConfig};
use gfd::gen::{real_life_workload, Dataset};
use gfd::graph::{AttrId, Graph, LabelId, NodeId, ValueId};

type Attrs = Vec<(NodeId, AttrId, ValueId)>;

fn structure(g: &Graph) -> (Vec<LabelId>, Vec<(NodeId, LabelId, NodeId)>) {
    (g.nodes().map(|v| g.label(v)).collect(), g.edges().collect())
}

fn attrs(g: &Graph) -> Attrs {
    g.nodes()
        .flat_map(|v| g.attrs(v).iter().map(move |&(a, val)| (v, a, val)))
        .collect()
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
        for workers in [1usize, 2, 8] {
            let other = model(workers);
            assert_eq!(structure(&other), structure(&base), "seed {seed}");
            assert_eq!(
                attrs(&other),
                base_attrs,
                "seed {seed}: the model at {workers} workers differs from the one at 1"
            );
        }
    }
}
