//! Chase-based satisfiability baseline.
//!
//! The paper notes (§VII) that "implementations of the chase are much
//! slower than SeqSat" — this module provides that comparator: chase Σ
//! over `GΣ` to fixpoint and report conflicts, without early termination
//! inside a round, ordering, or pending indexes.

use crate::chase::{dep_chase_with_config, ChaseConfig, DepChaseOutcome};
use crate::ggd::DepSatResult;
use gfd_core::{populate_model, sigma_union, DepSet, EqRel, SatOutcome};
use std::time::Instant;

/// Check the satisfiability of Σ by chasing `GΣ` to fixpoint with the
/// default (sequential) configuration.
pub fn chase_sat(sigma: &DepSet) -> DepSatResult {
    chase_sat_with_config(sigma, &ChaseConfig::default())
}

/// Check the satisfiability of Σ by chasing `GΣ` to fixpoint with the one
/// chase ([`crate::chase::dep_chase_with_config`]); on a literal Σ — the
/// baseline's input — it never materializes a node. `metrics.elapsed`
/// covers the whole check, model extraction included.
pub fn chase_sat_with_config(sigma: &DepSet, config: &ChaseConfig) -> DepSatResult {
    let start = Instant::now();
    let (graph, _) = sigma_union(sigma);
    let (outcome, stats, mut metrics) = dep_chase_with_config(sigma, graph, EqRel::new(), config);
    let outcome = match outcome {
        DepChaseOutcome::Conflict(c) => SatOutcome::Unsatisfiable(c),
        DepChaseOutcome::Fixpoint { mut graph, mut eq } => {
            populate_model(&mut graph, &mut eq, sigma.fresh_spelled());
            SatOutcome::Satisfiable(graph)
        }
        DepChaseOutcome::Interrupted(i) => SatOutcome::Unknown(i),
    };
    metrics.elapsed = start.elapsed();
    DepSatResult {
        outcome,
        stats,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{graph_satisfies_all, seq_sat, Dependency, Literal};
    use gfd_graph::{LabelId, Pattern, VarId, Vocab};

    /// Fresh constants are fresh for Σ, also when Σ spells one: the first
    /// unbound class (node 0's `A` = `B`) must not read out as `⊥1`, which
    /// `trap`'s premise tests and whose consequence `seed` contradicts.
    /// Both read-out paths, the driver's at one and two workers and the
    /// chase's, must return a population that satisfies Σ.
    #[test]
    fn fresh_constants_skip_the_constants_sigma_mentions() {
        use gfd_core::model::FRESH_PREFIX;
        use gfd_core::{sat_with_config, ReasonConfig};
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let (a, b, c) = (vocab.attr("A"), vocab.attr("B"), vocab.attr("C"));
        let x = VarId::new(0);
        let rule = |name: &str, premise: Vec<Literal>, consequence: Vec<Literal>| {
            let mut p = Pattern::new();
            p.add_node(t, "x");
            Dependency::new(name, p, premise, consequence)
        };
        let spelled = format!("{FRESH_PREFIX}1");
        let sigma = DepSet::from_vec(vec![
            rule("merge", vec![], vec![Literal::eq_attr(x, a, x, b)]),
            rule(
                "trap",
                vec![Literal::eq_const(x, a, spelled.as_str())],
                vec![Literal::eq_const(x, c, "1")],
            ),
            rule("seed", vec![], vec![Literal::eq_const(x, c, "2")]),
        ]);
        let models = [1, 2]
            .map(|p| {
                (
                    p,
                    sat_with_config(&sigma, &ReasonConfig::with_workers(p)).outcome,
                )
            })
            .into_iter()
            .chain([(
                0,
                chase_sat_with_config(&sigma, &ChaseConfig::default()).outcome,
            )]);
        for (workers, outcome) in models {
            match outcome {
                SatOutcome::Satisfiable(m) => {
                    assert!(graph_satisfies_all(&m, &sigma), "p = {workers} (0: chase)")
                }
                other => panic!("p = {workers} (0: chase): {other:?}"),
            }
        }
    }

    #[test]
    fn agrees_with_seq_sat() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let x = VarId::new(0);
        let mk = |lits: Vec<Literal>| {
            let mut p = Pattern::new();
            p.add_node(LabelId::WILDCARD, "x");
            Dependency::new("g", p, vec![], lits)
        };
        // Unsatisfiable pair.
        let unsat = DepSet::from_vec(vec![
            mk(vec![Literal::eq_const(x, a, 0i64)]),
            mk(vec![Literal::eq_const(x, a, 1i64)]),
        ]);
        assert!(matches!(
            chase_sat(&unsat).outcome,
            SatOutcome::Unsatisfiable(_)
        ));
        assert!(!seq_sat(&unsat).is_satisfiable());
        // Satisfiable singleton, with a model that validates.
        let sat = DepSet::from_vec(vec![mk(vec![Literal::eq_const(x, a, 0i64)])]);
        let r = chase_sat(&sat);
        assert!(r.is_satisfiable());
        match &r.outcome {
            SatOutcome::Satisfiable(m) => assert!(graph_satisfies_all(m, &sat)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn empty_sigma() {
        let r = chase_sat_with_config(&DepSet::new(), &ChaseConfig::with_workers(2));
        assert!(r.is_satisfiable());
        assert_eq!(r.metrics.workers, 2);
    }
}
