//! `SeqSat` — the sequential exact satisfiability algorithm (§IV-C).
//!
//! Built directly on the small model property (Theorem 1): construct the
//! canonical graph `GΣ`, enumerate homomorphic matches of every pattern,
//! enforce attribute dependencies into the equivalence relation, and report
//! *unsatisfiable* on the first conflict. If the fixpoint completes without
//! conflict, a concrete model (a Σ-bounded population of `GΣ`) is returned.
//!
//! Since the scheduler unification, `SeqSat` *is* the parallel driver
//! instantiated with one worker ([`crate::driver::run_reason`] with
//! `workers = 1`): same unit generation, same ordering, same enforcement
//! loop, run inline on the calling thread with broadcast a natural no-op.

use crate::budget::Interrupt;
use crate::canonical::CanonicalGraph;
use crate::dependency::DepSet;
use crate::driver::{run_reason, Goal, ReasonConfig, TerminalEvent};
use crate::eq::EqRel;
use crate::error::Conflict;
use crate::model::populate_model;
use gfd_runtime::RunMetrics;

/// The outcome of satisfiability checking.
#[derive(Clone, Debug)]
pub enum SatOutcome {
    /// Σ has a model; the witness is a Σ-bounded population of `GΣ`.
    Satisfiable(Box<gfd_graph::Graph>),
    /// Enforcing Σ on `GΣ` forces two distinct constants onto one
    /// attribute class.
    Unsatisfiable(Conflict),
    /// The run was cut short — deadline, unit budget, or a panic abort —
    /// before the fixpoint: no definite answer. Never produced with an
    /// unlimited [`crate::Budget`] and no faults.
    Unknown(Interrupt),
}

/// Result + statistics.
#[derive(Clone, Debug)]
pub struct SatResult {
    /// Satisfiable (with model) or the witnessing conflict.
    pub outcome: SatOutcome,
    /// Counters.
    pub stats: RunMetrics,
}

impl SatResult {
    /// True iff Σ was found satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self.outcome, SatOutcome::Satisfiable(_))
    }

    /// True iff the run degraded without a definite answer.
    pub fn is_unknown(&self) -> bool {
        matches!(self.outcome, SatOutcome::Unknown(_))
    }

    /// The interrupt that degraded the run, if any.
    pub fn interrupt(&self) -> Option<&Interrupt> {
        match &self.outcome {
            SatOutcome::Unknown(i) => Some(i),
            _ => None,
        }
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&gfd_graph::Graph> {
        match &self.outcome {
            SatOutcome::Satisfiable(m) => Some(m),
            _ => None,
        }
    }
}

/// `SeqSat`: [`sat_with_config`] at `workers = 1` (nothing to split for).
pub fn seq_sat(sigma: &DepSet) -> SatResult {
    sat_with_config(sigma, &ReasonConfig::with_workers(1).without_split())
}

/// Check satisfiability of a literal Σ — the one entry point: `ParSat` is
/// `cfg.workers = p`, `SeqSat` is `cfg.workers = 1`. Panics on a Σ with
/// generating rules ([`run_reason`]); `gfd_chase::dep_sat_with_config`
/// decides those.
pub fn sat_with_config(sigma: &DepSet, cfg: &ReasonConfig) -> SatResult {
    if sigma.is_empty() {
        // Vacuously satisfiable; the empty population works.
        return SatResult {
            outcome: SatOutcome::Satisfiable(Box::new(gfd_graph::Graph::new())),
            stats: RunMetrics {
                workers: cfg.workers.max(1),
                ..Default::default()
            },
        };
    }

    let (canon, _) = CanonicalGraph::for_sigma(sigma);
    let run = run_reason(sigma, Goal::Sat, EqRel::new(), &canon, cfg);
    let outcome = match run.terminal {
        Some(TerminalEvent::Conflict(c)) => SatOutcome::Unsatisfiable(c),
        Some(TerminalEvent::Consequence) => {
            unreachable!("consequence events are implication-only")
        }
        None => match Interrupt::from_outcome(&run.sched_outcome) {
            // Degraded run, no conflict found: the answer is unknown —
            // claiming UNSAT here would turn a timeout into a wrong
            // definite verdict.
            Some(interrupt) => SatOutcome::Unknown(interrupt),
            None => {
                let mut engine = run.engine.expect("quiescent run produces merged state");
                let mut model = canon.graph;
                populate_model(&mut model, &mut engine.eq, sigma.fresh_spelled());
                SatOutcome::Satisfiable(Box::new(model))
            }
        },
    };
    SatResult {
        outcome,
        stats: run.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;
    use crate::literal::Literal;
    use crate::validate::graph_satisfies_all;
    use gfd_graph::{LabelId, Pattern, VarId, Vocab};

    fn unary_pattern(vocab: &mut Vocab, label: &str) -> Pattern {
        let mut p = Pattern::new();
        p.add_node(vocab.label(label), "x");
        p
    }

    /// The paper's Example 2, first half: ϕ5 = Q5[x](∅ → x.A = 0) and
    /// ϕ6 = Q5[x](∅ → x.A = 1) with Q5 a single wildcard node.
    #[test]
    fn example2_wildcard_conflict_is_unsat() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let mut q5a = Pattern::new();
        q5a.add_node(LabelId::WILDCARD, "x");
        let mut q5b = Pattern::new();
        q5b.add_node(LabelId::WILDCARD, "x");
        let sigma = DepSet::from_vec(vec![
            Dependency::new(
                "phi5",
                q5a,
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 0i64)],
            ),
            Dependency::new(
                "phi6",
                q5b,
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            ),
        ]);
        let r = seq_sat(&sigma);
        assert!(!r.is_satisfiable());
    }

    /// The paper's Example 2, second half: ϕ7 and ϕ8 interact through
    /// distinct patterns Q6, Q7 and are jointly unsatisfiable.
    ///
    /// Q6: x -p-> y(b), x -p-> z(b), x -p-> w(c)   (y,z labelled b; w c)
    /// Q7: x -p-> y(b), x -p-> z(c), x -p-> w(c)
    /// ϕ7 = Q6(∅ → x.A = 0 ∧ y.B = 1); ϕ8 = Q7(y.B = 1 → x.A = 1).
    fn q6(vocab: &mut Vocab) -> Pattern {
        let a = vocab.label("a");
        let b = vocab.label("b");
        let c = vocab.label("c");
        let p_lbl = vocab.label("p");
        let mut q = Pattern::new();
        let x = q.add_node(a, "x");
        let y = q.add_node(b, "y");
        let z = q.add_node(b, "z");
        let w = q.add_node(c, "w");
        q.add_edge(x, p_lbl, y);
        q.add_edge(x, p_lbl, z);
        q.add_edge(x, p_lbl, w);
        q
    }

    fn q7(vocab: &mut Vocab) -> Pattern {
        let a = vocab.label("a");
        let b = vocab.label("b");
        let c = vocab.label("c");
        let p_lbl = vocab.label("p");
        let mut q = Pattern::new();
        let x = q.add_node(a, "x");
        let y = q.add_node(b, "y");
        let z = q.add_node(c, "z");
        let w = q.add_node(c, "w");
        q.add_edge(x, p_lbl, y);
        q.add_edge(x, p_lbl, z);
        q.add_edge(x, p_lbl, w);
        q
    }

    #[test]
    fn example2_cross_pattern_interaction_is_unsat() {
        let mut vocab = Vocab::new();
        let attr_a = vocab.attr("A");
        let attr_b = vocab.attr("B");
        let phi7 = Dependency::new(
            "phi7",
            q6(&mut vocab),
            vec![],
            vec![
                Literal::eq_const(VarId::new(0), attr_a, 0i64),
                Literal::eq_const(VarId::new(1), attr_b, 1i64),
            ],
        );
        let phi8 = Dependency::new(
            "phi8",
            q7(&mut vocab),
            vec![Literal::eq_const(VarId::new(1), attr_b, 1i64)],
            vec![Literal::eq_const(VarId::new(0), attr_a, 1i64)],
        );
        // Each alone is satisfiable.
        let alone7 = seq_sat(&DepSet::from_vec(vec![phi7.clone()]));
        assert!(alone7.is_satisfiable());
        let alone8 = seq_sat(&DepSet::from_vec(vec![phi8.clone()]));
        assert!(alone8.is_satisfiable());
        // Together they are not: Q7 matches into Q6's canonical copy
        // (z,w ↦ the c node), forcing x.A to both 0 and 1.
        let both = seq_sat(&DepSet::from_vec(vec![phi7, phi8]));
        assert!(!both.is_satisfiable());
    }

    /// The paper's Example 4: Σ = {ϕ7, ϕ9, ϕ10} is unsatisfiable through a
    /// pending-recheck chain (the inverted-index mechanism).
    #[test]
    fn example4_inverted_index_chain_is_unsat() {
        let mut vocab = Vocab::new();
        let attr_a = vocab.attr("A");
        let attr_b = vocab.attr("B");
        let attr_c = vocab.attr("C");
        let phi7 = Dependency::new(
            "phi7",
            q6(&mut vocab),
            vec![],
            vec![
                Literal::eq_const(VarId::new(0), attr_a, 0i64),
                Literal::eq_const(VarId::new(1), attr_b, 1i64),
            ],
        );
        let phi9 = Dependency::new(
            "phi9",
            q6(&mut vocab),
            vec![Literal::eq_const(VarId::new(1), attr_b, 1i64)],
            vec![Literal::eq_const(VarId::new(3), attr_c, 1i64)],
        );
        let phi10 = Dependency::new(
            "phi10",
            q7(&mut vocab),
            vec![Literal::eq_const(VarId::new(3), attr_c, 1i64)],
            vec![Literal::eq_const(VarId::new(0), attr_a, 1i64)],
        );
        let sigma = DepSet::from_vec(vec![phi7, phi9, phi10]);
        let r = seq_sat(&sigma);
        assert!(!r.is_satisfiable());
        // Regardless of ordering options (Church–Rosser).
        let r2 = sat_with_config(
            &sigma,
            &ReasonConfig {
                use_dependency_order: false,
                ..ReasonConfig::with_workers(1)
            },
        );
        assert!(!r2.is_satisfiable());
        let r3 = sat_with_config(
            &sigma,
            &ReasonConfig {
                use_dependency_order: false,
                prune_components: false,
                ..ReasonConfig::with_workers(1)
            },
        );
        assert!(!r3.is_satisfiable());
    }

    #[test]
    fn satisfiable_set_produces_a_valid_model() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let g0 = Dependency::new(
            "g0",
            unary_pattern(&mut vocab, "t"),
            vec![],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        let g1 = Dependency::new(
            "g1",
            unary_pattern(&mut vocab, "t"),
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_attr(x, a, x, b)],
        );
        let sigma = DepSet::from_vec(vec![g0, g1]);
        let r = seq_sat(&sigma);
        assert!(r.is_satisfiable());
        let model = r.model().unwrap();
        // The model must satisfy every GFD in Σ and host a match of each.
        assert!(graph_satisfies_all(model, &sigma));
        assert!(model.node_count() >= 2);
        assert!(
            r.stats.matches >= 4,
            "t-nodes cross-match: 2 gfds × 2 nodes"
        );
    }

    #[test]
    fn denial_with_empty_premise_is_unsat() {
        let mut vocab = Vocab::new();
        let p = unary_pattern(&mut vocab, "t");
        let phi = Dependency::with_false_consequence("deny", p, vec![], &mut vocab);
        let r = seq_sat(&DepSet::from_vec(vec![phi]));
        assert!(!r.is_satisfiable());
    }

    #[test]
    fn conditional_denial_is_satisfiable() {
        // "no t-node has a = 1" is satisfiable: a model binds a ≠ 1 (or
        // leaves it free).
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let p = unary_pattern(&mut vocab, "t");
        let phi = Dependency::with_false_consequence(
            "deny_a1",
            p,
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            &mut vocab,
        );
        let r = seq_sat(&DepSet::from_vec(vec![phi]));
        assert!(r.is_satisfiable());
        assert!(graph_satisfies_all(
            r.model().unwrap(),
            &DepSet::from_vec(vec![])
        ));
    }

    #[test]
    fn empty_sigma_is_satisfiable() {
        let r = seq_sat(&DepSet::new());
        assert!(r.is_satisfiable());
    }
}
