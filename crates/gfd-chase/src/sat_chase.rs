//! Chase-based satisfiability baseline.
//!
//! The paper notes (§VII) that "implementations of the chase are much
//! slower than SeqSat" — this module provides that comparator: chase Σ
//! over `GΣ` to fixpoint and report conflicts, without early termination
//! inside a round, ordering, or pending indexes.

use crate::chase::{dep_chase_with_config, ChaseConfig, DepChaseOutcome};
use crate::ggd::DepSatResult;
use gfd_core::{populate_model, CanonicalGraph, DepSet, EqRel, SatOutcome};
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
    let (canon, _) = CanonicalGraph::for_sigma(sigma);
    let (outcome, stats, mut metrics) =
        dep_chase_with_config(sigma, canon.graph, EqRel::new(), config);
    let outcome = match outcome {
        DepChaseOutcome::Conflict(c) => SatOutcome::Unsatisfiable(c),
        DepChaseOutcome::Fixpoint { mut graph, mut eq } => {
            populate_model(&mut graph, &mut eq);
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
