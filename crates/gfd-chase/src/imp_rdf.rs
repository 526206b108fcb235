//! `ChaseImp` — the chase-based implication baseline (the paper's
//! `ParImpRDF`, following Hellings et al. \[5\] with triple patterns
//! represented as graphs).

use crate::chase::{dep_chase_with_config, ChaseConfig, ChaseStats, DepChaseOutcome};
use crate::ggd::DepImpResult;
use gfd_core::{
    consequence_deducible_on, imp_canonical, DepSet, Dependency, ImpOutcome, ImpliedVia,
};
use gfd_graph::LabelIndex;
use gfd_runtime::RunMetrics;
use std::time::Instant;

/// Check `Σ |= ϕ` by chasing Σ over `G^X_Q` to fixpoint, then testing the
/// consequence. No dependency ordering, no inverted index, no intra-round
/// early exit — the baseline `SeqImp` beats by ~1.4× in Fig. 5.
pub fn chase_imp(sigma: &DepSet, phi: &Dependency) -> DepImpResult {
    chase_imp_with_config(sigma, phi, &ChaseConfig::default())
}

/// [`chase_imp`] under an explicit configuration: the one chase
/// ([`crate::chase::dep_chase_with_config`]) over Σ, started from `EqX` on
/// `G^X_Q`. The instances decided without reasoning
/// ([`gfd_core::imp_canonical`]) are decided before any chase, as
/// `imp_with_config` decides them.
pub fn chase_imp_with_config(
    sigma: &DepSet,
    phi: &Dependency,
    config: &ChaseConfig,
) -> DepImpResult {
    let start = Instant::now();
    let (canon, eqx) = match imp_canonical(phi) {
        Ok(prepared) => prepared,
        Err(via) => {
            return DepImpResult {
                outcome: ImpOutcome::Implied(via),
                stats: ChaseStats::default(),
                metrics: RunMetrics {
                    workers: config.workers.max(1),
                    elapsed: start.elapsed(),
                    ..Default::default()
                },
            }
        }
    };

    let (outcome, stats, mut metrics) = dep_chase_with_config(sigma, canon.graph, eqx, config);
    let outcome = match outcome {
        DepChaseOutcome::Conflict(c) => ImpOutcome::Implied(ImpliedVia::Conflict(c)),
        DepChaseOutcome::Fixpoint { graph, eq } => {
            if consequence_deducible_on(&eq, &LabelIndex::build(&graph), phi) {
                ImpOutcome::Implied(ImpliedVia::Consequence)
            } else {
                ImpOutcome::NotImplied
            }
        }
        DepChaseOutcome::Interrupted(i) => ImpOutcome::Unknown(i),
    };
    metrics.elapsed = start.elapsed();
    DepImpResult {
        outcome,
        stats,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{seq_imp, Literal};
    use gfd_graph::{Pattern, VarId, Vocab};

    /// The Example 8 fixture once more: the chase must agree with SeqImp.
    fn example8() -> (DepSet, Dependency, Dependency) {
        let mut vocab = Vocab::new();
        let a_lbl = vocab.label("a");
        let b_lbl = vocab.label("b");
        let c_lbl = vocab.label("c");
        let p_lbl = vocab.label("p");
        let attr_a = vocab.attr("A");
        let attr_b = vocab.attr("B");
        let attr_c = vocab.attr("C");

        let mut q8 = Pattern::new();
        let x8 = q8.add_node(a_lbl, "x");
        let y8 = q8.add_node(b_lbl, "y");
        q8.add_edge(x8, p_lbl, y8);
        let mut q9 = Pattern::new();
        let x9 = q9.add_node(a_lbl, "x");
        let y9 = q9.add_node(c_lbl, "y");
        q9.add_edge(x9, p_lbl, y9);
        let mut q7 = Pattern::new();
        let x7 = q7.add_node(a_lbl, "x");
        let y7 = q7.add_node(b_lbl, "y");
        let z7 = q7.add_node(c_lbl, "z");
        let w7 = q7.add_node(c_lbl, "w");
        q7.add_edge(x7, p_lbl, y7);
        q7.add_edge(x7, p_lbl, z7);
        q7.add_edge(x7, p_lbl, w7);

        let phi11 = Dependency::new(
            "phi11",
            q8,
            vec![],
            vec![Literal::eq_const(x8, attr_a, 1i64)],
        );
        let phi12 = Dependency::new(
            "phi12",
            q9,
            vec![
                Literal::eq_const(x9, attr_a, 1i64),
                Literal::eq_const(y9, attr_b, 2i64),
            ],
            vec![Literal::eq_const(y9, attr_c, 2i64)],
        );
        let phi13 = Dependency::new(
            "phi13",
            q7.clone(),
            vec![Literal::eq_const(VarId::new(2), attr_b, 2i64)],
            vec![Literal::eq_const(VarId::new(2), attr_c, 2i64)],
        );
        let phi14 = Dependency::new(
            "phi14",
            q7,
            vec![Literal::eq_const(VarId::new(0), attr_a, 0i64)],
            vec![Literal::eq_const(VarId::new(2), attr_c, 2i64)],
        );
        (DepSet::from_vec(vec![phi11, phi12]), phi13, phi14)
    }

    #[test]
    fn agrees_with_seq_imp_on_example8() {
        let (sigma, phi13, phi14) = example8();
        assert_eq!(
            chase_imp(&sigma, &phi13).is_implied(),
            seq_imp(&sigma, &phi13).is_implied()
        );
        assert_eq!(
            chase_imp(&sigma, &phi14).is_implied(),
            seq_imp(&sigma, &phi14).is_implied()
        );
        assert!(chase_imp(&sigma, &phi13).is_implied());
    }

    #[test]
    fn not_implied_cases_agree() {
        let (sigma, phi13, _) = example8();
        let smaller = DepSet::from_vec(vec![sigma.as_slice()[0].clone()]);
        assert!(!chase_imp(&smaller, &phi13).is_implied());
        assert!(!seq_imp(&smaller, &phi13).is_implied());
    }

    #[test]
    fn trivial_cases() {
        let (sigma, _, _) = example8();
        let mut vocab = Vocab::new();
        let mut q = Pattern::new();
        let x = q.add_node(vocab.label("a"), "x");
        let a = vocab.attr("A");
        let trivial = Dependency::new("t", q.clone(), vec![], vec![]);
        assert!(chase_imp(&sigma, &trivial).is_implied());
        // The short-circuits report the configured worker count, like
        // every run that reaches the scheduler, and the time they took.
        let r = chase_imp_with_config(&sigma, &trivial, &ChaseConfig::with_workers(3));
        assert_eq!(r.metrics.workers, 3);
        let inconsistent = Dependency::new(
            "i",
            q.clone(),
            vec![Literal::eq_const(x, a, 1i64), Literal::eq_const(x, a, 2i64)],
            vec![Literal::eq_const(x, a, 3i64)],
        );
        let r = chase_imp(&sigma, &inconsistent);
        assert!(matches!(
            r.outcome,
            ImpOutcome::Implied(ImpliedVia::PremiseInconsistent)
        ));
        assert!(r.metrics.elapsed > std::time::Duration::ZERO);
        // X alone deduces Y: decided without a chase round.
        let from_x = Dependency::new(
            "x",
            q,
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        let r = chase_imp(&sigma, &from_x);
        assert!(matches!(
            r.outcome,
            ImpOutcome::Implied(ImpliedVia::Consequence)
        ));
        assert_eq!(r.stats.rounds, 0);
    }
}
