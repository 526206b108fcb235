//! `SeqImp` — the sequential exact implication algorithm (§VI-B).
//!
//! Built on Corollary 4: `Σ |= ϕ` iff some partial enforcement `H` of Σ on
//! the canonical graph `G^X_Q` of ϕ makes `EqH` conflicting, or deduces the
//! consequence (`Y ⊆ EqH`). The algorithm enforces matches of Σ's patterns
//! in `G^X_Q` starting from `EqX` and terminates with *implied* as soon as
//! either condition holds; if the fixpoint completes without them, `Σ 6|= ϕ`.

use crate::budget::Interrupt;
use crate::canonical::{consequence_deducible_on, CanonicalGraph};
use crate::dependency::{DepSet, Dependency};
use crate::driver::{run_reason, Goal, ReasonConfig, TerminalEvent};
use crate::eq::EqRel;
use crate::error::Conflict;
use gfd_runtime::RunMetrics;

/// Why `Σ |= ϕ` holds.
#[derive(Clone, Debug)]
pub enum ImpliedVia {
    /// ϕ's own premise `X` is inconsistent: no match can satisfy it.
    PremiseInconsistent,
    /// Enforcing Σ on `G^X_Q` conflicts: Σ ∪ X is inconsistent (the
    /// paper's ϕ14 case).
    Conflict(Conflict),
    /// The consequence became deducible: `Y ⊆ EqH` (the ϕ13 case).
    Consequence,
}

/// The outcome of implication checking.
#[derive(Clone, Debug)]
pub enum ImpOutcome {
    /// `Σ |= ϕ`.
    Implied(ImpliedVia),
    /// `Σ 6|= ϕ` — a counterexample population of `G^X_Q` exists.
    NotImplied,
    /// The run was cut short — deadline, unit budget, or a panic abort —
    /// before the fixpoint: no definite answer. Never produced with an
    /// unlimited [`crate::Budget`] and no faults.
    Unknown(Interrupt),
}

/// Result + statistics.
#[derive(Clone, Debug)]
pub struct ImpResult {
    /// Implied (with the reason) or not.
    pub outcome: ImpOutcome,
    /// Counters.
    pub stats: RunMetrics,
}

impl ImpResult {
    /// True iff `Σ |= ϕ`.
    pub fn is_implied(&self) -> bool {
        matches!(self.outcome, ImpOutcome::Implied(_))
    }

    /// True iff the run degraded without a definite answer.
    pub fn is_unknown(&self) -> bool {
        matches!(self.outcome, ImpOutcome::Unknown(_))
    }

    /// The interrupt that degraded the run, if any.
    pub fn interrupt(&self) -> Option<&Interrupt> {
        match &self.outcome {
            ImpOutcome::Unknown(i) => Some(i),
            _ => None,
        }
    }
}

/// `G^X_Q` and `EqX` for ϕ — where every implication door starts its run
/// — or, for the instances decided without any reasoning whatever Σ is,
/// why `Σ |= ϕ` holds: `Y = ∅` (the constant true), an inconsistent `X`,
/// or a consequence `X` alone deduces (`Y ⊆ EqX`, or a target the premise
/// pattern itself realizes, the empty one included).
pub fn imp_canonical(phi: &Dependency) -> Result<(CanonicalGraph, EqRel), ImpliedVia> {
    if phi.consequence.literals().is_some_and(<[_]>::is_empty) {
        return Err(ImpliedVia::Consequence);
    }
    let (canon, eqx) = CanonicalGraph::for_phi(phi).map_err(|_| ImpliedVia::PremiseInconsistent)?;
    if consequence_deducible_on(&eqx, &canon.index, phi) {
        return Err(ImpliedVia::Consequence);
    }
    Ok((canon, eqx))
}

/// `SeqImp`: [`imp_with_config`] at `workers = 1` (nothing to split for).
pub fn seq_imp(sigma: &DepSet, phi: &Dependency) -> ImpResult {
    imp_with_config(sigma, phi, &ReasonConfig::with_workers(1).without_split())
}

/// Check `Σ |= ϕ` for a literal Σ — the one entry point: `ParImp` is
/// `cfg.workers = p`, `SeqImp` is `cfg.workers = 1`. ϕ's consequence may be
/// of either kind; Σ's may not (panics on a generating rule, see
/// [`run_reason`] — `gfd_chase::dep_imp_with_config` decides those by the
/// chase).
///
/// Relative to satisfiability the driver differs in two ways (§VI-C):
/// units whose premise is subsumed by `X` get the highest priority, and
/// workers terminate early when ϕ's consequence becomes deducible
/// ([`Goal::Imp`]), not just on conflicts. Rules that cannot match the
/// pattern-sized `G^X_Q` at all never receive a plan or a unit
/// (`build_plans_lazy`), which on a large Σ skips nearly everything — the
/// static-applicability pruning that lets `SeqImp` beat the naive chase on
/// Fig. 5.
pub fn imp_with_config(sigma: &DepSet, phi: &Dependency, cfg: &ReasonConfig) -> ImpResult {
    let start = std::time::Instant::now();
    // The instances decided without any reasoning.
    let decided = |outcome: ImpOutcome| ImpResult {
        outcome,
        stats: RunMetrics {
            workers: cfg.workers.max(1),
            elapsed: start.elapsed(),
            ..Default::default()
        },
    };
    let (canon, eqx) = match imp_canonical(phi) {
        Ok(prepared) => prepared,
        Err(via) => return decided(ImpOutcome::Implied(via)),
    };
    if sigma.is_empty() {
        return decided(ImpOutcome::NotImplied);
    }
    let run = run_reason(sigma, Goal::Imp(phi), eqx, &canon, cfg);
    let outcome = match run.terminal {
        Some(TerminalEvent::Conflict(c)) => ImpOutcome::Implied(ImpliedVia::Conflict(c)),
        Some(TerminalEvent::Consequence) => ImpOutcome::Implied(ImpliedVia::Consequence),
        // Degraded run, no terminal event: claiming "not implied" would
        // turn a timeout into a wrong definite verdict.
        None => match Interrupt::from_outcome(&run.sched_outcome) {
            Some(interrupt) => ImpOutcome::Unknown(interrupt),
            None => ImpOutcome::NotImplied,
        },
    };
    let mut stats = run.metrics;
    stats.elapsed = start.elapsed();
    ImpResult { outcome, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use gfd_graph::{Pattern, VarId, Vocab};

    /// Patterns of the paper's Example 8 (Fig. 2):
    /// Q8: x -p-> y(b); Q9: x -p-> y(c); Q7: x with p-children y(b), z(c),
    /// w(c).
    struct Ex8 {
        vocab: Vocab,
        sigma: DepSet,
        phi13: Dependency,
        phi14: Dependency,
    }

    fn example8() -> Ex8 {
        let mut vocab = Vocab::new();
        let a_lbl = vocab.label("a");
        let b_lbl = vocab.label("b");
        let c_lbl = vocab.label("c");
        let p_lbl = vocab.label("p");
        let attr_a = vocab.attr("A");
        let attr_b = vocab.attr("B");
        let attr_c = vocab.attr("C");

        // Q8: x(a) -p-> y(b)
        let mut q8 = Pattern::new();
        let x8 = q8.add_node(a_lbl, "x");
        let y8 = q8.add_node(b_lbl, "y");
        q8.add_edge(x8, p_lbl, y8);

        // Q9: x(a) -p-> y(c)
        let mut q9 = Pattern::new();
        let x9 = q9.add_node(a_lbl, "x");
        let y9 = q9.add_node(c_lbl, "y");
        q9.add_edge(x9, p_lbl, y9);

        // Q7: x(a) with children y(b), z(c), w(c)
        let mut q7 = Pattern::new();
        let x7 = q7.add_node(a_lbl, "x");
        let y7 = q7.add_node(b_lbl, "y");
        let z7 = q7.add_node(c_lbl, "z");
        let w7 = q7.add_node(c_lbl, "w");
        q7.add_edge(x7, p_lbl, y7);
        q7.add_edge(x7, p_lbl, z7);
        q7.add_edge(x7, p_lbl, w7);

        // ϕ11 = Q8(∅ → x.A = 1)
        let phi11 = Dependency::new(
            "phi11",
            q8,
            vec![],
            vec![Literal::eq_const(x8, attr_a, 1i64)],
        );
        // ϕ12 = Q9(x.A = 1 ∧ y.B = 2 → y.C = 2)
        let phi12 = Dependency::new(
            "phi12",
            q9,
            vec![
                Literal::eq_const(x9, attr_a, 1i64),
                Literal::eq_const(y9, attr_b, 2i64),
            ],
            vec![Literal::eq_const(y9, attr_c, 2i64)],
        );
        // ϕ13 = Q7(z.B = 2 → z.C = 2)
        let phi13 = Dependency::new(
            "phi13",
            q7.clone(),
            vec![Literal::eq_const(VarId::new(2), attr_b, 2i64)],
            vec![Literal::eq_const(VarId::new(2), attr_c, 2i64)],
        );
        // ϕ14 = Q7(x.A = 0 → z.C = 2)
        let phi14 = Dependency::new(
            "phi14",
            q7,
            vec![Literal::eq_const(VarId::new(0), attr_a, 0i64)],
            vec![Literal::eq_const(VarId::new(2), attr_c, 2i64)],
        );
        Ex8 {
            vocab,
            sigma: DepSet::from_vec(vec![phi11, phi12]),
            phi13,
            phi14,
        }
    }

    #[test]
    fn example8_phi13_implied_via_consequence() {
        let ex = example8();
        let r = seq_imp(&ex.sigma, &ex.phi13);
        assert!(r.is_implied(), "{:?}", r.outcome);
        assert!(matches!(
            r.outcome,
            ImpOutcome::Implied(ImpliedVia::Consequence)
        ));
    }

    #[test]
    fn example8_phi14_implied_via_conflict() {
        let ex = example8();
        let r = seq_imp(&ex.sigma, &ex.phi14);
        assert!(r.is_implied(), "{:?}", r.outcome);
        assert!(matches!(
            r.outcome,
            ImpOutcome::Implied(ImpliedVia::Conflict(_))
        ));
    }

    #[test]
    fn example8_neither_rule_alone_implies_phi13() {
        let ex = example8();
        for i in 0..2 {
            let single = DepSet::from_vec(vec![ex.sigma.as_slice()[i].clone()]);
            let r = seq_imp(&single, &ex.phi13);
            assert!(
                !r.is_implied(),
                "ϕ13 must not follow from ϕ1{} alone",
                i + 1
            );
        }
    }

    #[test]
    fn example8_results_stable_without_ordering() {
        let ex = example8();
        let cfg = ReasonConfig {
            use_dependency_order: false,
            prune_components: false,
            ..ReasonConfig::with_workers(1)
        };
        assert!(imp_with_config(&ex.sigma, &ex.phi13, &cfg).is_implied());
        assert!(imp_with_config(&ex.sigma, &ex.phi14, &cfg).is_implied());
    }

    #[test]
    fn unrelated_gfd_is_not_implied() {
        let ex = example8();
        let mut vocab = ex.vocab;
        let d = vocab.attr("D");
        let mut q = Pattern::new();
        let x = q.add_node(vocab.label("a"), "x");
        let phi = Dependency::new("new", q, vec![], vec![Literal::eq_const(x, d, 9i64)]);
        let r = seq_imp(&ex.sigma, &phi);
        assert!(!r.is_implied());
    }

    #[test]
    fn trivial_cases() {
        let ex = example8();
        let mut vocab = ex.vocab;
        let a = vocab.attr("A");
        // Y = ∅ is implied by anything.
        let mut q = Pattern::new();
        let x = q.add_node(vocab.label("a"), "x");
        let trivial = Dependency::new("trivial", q.clone(), vec![], vec![]);
        assert!(seq_imp(&ex.sigma, &trivial).is_implied());
        assert!(seq_imp(&DepSet::new(), &trivial).is_implied());

        // Y ⊆ X is implied even by the empty Σ.
        let reflexive = Dependency::new(
            "reflexive",
            q.clone(),
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        assert!(seq_imp(&DepSet::new(), &reflexive).is_implied());

        // Inconsistent X implies anything.
        let inconsistent = Dependency::new(
            "inconsistent",
            q,
            vec![Literal::eq_const(x, a, 1i64), Literal::eq_const(x, a, 2i64)],
            vec![Literal::eq_const(x, vocab.attr("whatever"), 3i64)],
        );
        let r = seq_imp(&DepSet::new(), &inconsistent);
        assert!(matches!(
            r.outcome,
            ImpOutcome::Implied(ImpliedVia::PremiseInconsistent)
        ));
    }

    #[test]
    fn a_gfd_implies_itself() {
        let ex = example8();
        for (_, g) in ex.sigma.iter() {
            let r = seq_imp(&ex.sigma, g);
            assert!(r.is_implied(), "{} must imply itself", g.name);
        }
    }

    #[test]
    fn transitivity_of_variable_literals() {
        // Σ: Q(∅ → x.a = x.b), Q(∅ → x.b = x.c)  ⊨  Q(∅ → x.a = x.c).
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let mk = |lits: Vec<Literal>, vocab: &mut Vocab| {
            let mut p = Pattern::new();
            p.add_node(vocab.label("t"), "x");
            Dependency::new("g", p, vec![], lits)
        };
        let _ = t;
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![
            mk(vec![Literal::eq_attr(x, a, x, b)], &mut vocab),
            mk(vec![Literal::eq_attr(x, b, x, c)], &mut vocab),
        ]);
        let phi = mk(vec![Literal::eq_attr(x, a, x, c)], &mut vocab);
        assert!(seq_imp(&sigma, &phi).is_implied());
        let phi_wrong = mk(vec![Literal::eq_const(x, a, 1i64)], &mut vocab);
        assert!(!seq_imp(&sigma, &phi_wrong).is_implied());
    }
}
