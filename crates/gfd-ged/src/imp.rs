//! GED implication: `Σ |= ψ` with disjunction, order predicates and id
//! literals.
//!
//! The algorithm generalizes `SeqImp` (§VI-B). Build the canonical graph
//! `G^X_Q` of ψ (the pattern as a graph, variable `i` = node `i`) and
//! assert the premise `X` into a [`GedStore`](crate::store::GedStore); if `X` is already
//! inconsistent, ψ holds vacuously. Then run the shared enforcement scan
//! (`crate::chase`) — but where satisfiability asks *does some branch
//! survive*, implication asks *does every branch reach the goal*:
//!
//! * an inconsistent branch is vacuously fine (the paper's "conflict"
//!   case of Corollary 4);
//! * at a quiescent leaf, the goal holds when some consequence disjunct of
//!   ψ is fully entailed (the `Y ⊆ EqH` case);
//! * a quiescent leaf where every disjunct can be *simultaneously
//!   falsified* by the generic minimal model — omitted attributes,
//!   unmerged nodes, refuted facts — is a counterexample: `Σ ̸|= ψ`;
//! * a disjunct blocked only by an **undetermined grounded attribute
//!   literal** (possible with order predicates, e.g. `Y = x.A ≤ 5 ∨
//!   x.A ≥ 3` which every model satisfies) is resolved by branching both
//!   ways; implication must hold in both.

//!
//! Since the scheduler port, the branch search lives in [`crate::driver`]
//! (each open branch is a work unit on the shared `gfd-runtime`
//! scheduler) and [`ged_implies`] is the `workers = 1` instantiation.

use crate::driver::{ged_implies_with_config, GedReasonConfig};
use crate::ged::{Ged, GedSet};
use gfd_core::Interrupt;

/// The result of an implication check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GedImpOutcome {
    /// `Σ |= ψ`.
    Implied,
    /// A counterexample family exists.
    NotImplied,
    /// The search was cut short — branch budget, deadline, unit budget,
    /// or a panic abort — before a verdict.
    Unknown(Interrupt),
}

impl GedImpOutcome {
    /// Is ψ implied?
    pub fn is_implied(&self) -> bool {
        matches!(self, GedImpOutcome::Implied)
    }
}

/// Decide whether `sigma` implies `phi` — the sequential (`workers = 1`)
/// instantiation of the shared scheduler driver, under the default
/// branch budget (10⁶); [`ged_implies_with_config`] chooses the budget.
pub fn ged_implies(sigma: &GedSet, phi: &Ged) -> GedImpOutcome {
    ged_implies_with_config(sigma, phi, &GedReasonConfig::default()).outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::{CmpOp, GedLiteral, GedSet};
    use gfd_graph::{LabelId, Pattern, Vocab};

    fn wildcard_node() -> Pattern {
        let mut p = Pattern::new();
        p.add_node(LabelId::WILDCARD, "x");
        p
    }

    /// `Σ = {∅ → x.A = 1}` implies `x.A = 1` and `x.A ≥ 1`.
    #[test]
    fn constant_consequence_is_implied_with_order() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let x = gfd_graph::VarId::new(0);
        let sigma = GedSet::from_vec(vec![Ged::conjunctive(
            "r",
            wildcard_node(),
            vec![],
            vec![GedLiteral::eq_const(x, a, 1i64)],
        )]);
        let eq = Ged::conjunctive(
            "q1",
            wildcard_node(),
            vec![],
            vec![GedLiteral::eq_const(x, a, 1i64)],
        );
        let ge = Ged::conjunctive(
            "q2",
            wildcard_node(),
            vec![],
            vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 1i64)],
        );
        let gt0 = Ged::conjunctive(
            "q3",
            wildcard_node(),
            vec![],
            vec![GedLiteral::cmp_const(x, a, CmpOp::Gt, 0i64)],
        );
        let wrong = Ged::conjunctive(
            "q4",
            wildcard_node(),
            vec![],
            vec![GedLiteral::eq_const(x, a, 2i64)],
        );
        assert!(ged_implies(&sigma, &eq).is_implied());
        assert!(ged_implies(&sigma, &ge).is_implied());
        assert!(ged_implies(&sigma, &gt0).is_implied());
        assert_eq!(ged_implies(&sigma, &wrong), GedImpOutcome::NotImplied);
    }

    /// The paper's Example 8, ϕ14 flavour: X inconsistent with Σ ⇒
    /// implied.
    #[test]
    fn inconsistent_premise_means_implied() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let x = gfd_graph::VarId::new(0);
        let sigma = GedSet::from_vec(vec![Ged::conjunctive(
            "forces-one",
            wildcard_node(),
            vec![],
            vec![GedLiteral::eq_const(x, a, 1i64)],
        )]);
        // X says x.A = 0: together with Σ (x.A = 1), inconsistent.
        let phi = Ged::conjunctive(
            "phi14",
            wildcard_node(),
            vec![GedLiteral::eq_const(x, a, 0i64)],
            vec![GedLiteral::eq_const(x, b, 2i64)],
        );
        assert!(ged_implies(&sigma, &phi).is_implied());
    }

    /// Transitive deduction through two rules (Example 8, ϕ13 flavour).
    #[test]
    fn chained_rules_deduce_consequence() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let c = vocab.attr("C");
        let x = gfd_graph::VarId::new(0);
        let r1 = Ged::conjunctive(
            "r1",
            wildcard_node(),
            vec![GedLiteral::eq_const(x, a, 1i64)],
            vec![GedLiteral::eq_const(x, b, 2i64)],
        );
        let r2 = Ged::conjunctive(
            "r2",
            wildcard_node(),
            vec![GedLiteral::eq_const(x, b, 2i64)],
            vec![GedLiteral::eq_const(x, c, 3i64)],
        );
        let sigma = GedSet::from_vec(vec![r1, r2]);
        let phi = Ged::conjunctive(
            "phi",
            wildcard_node(),
            vec![GedLiteral::eq_const(x, a, 1i64)],
            vec![GedLiteral::eq_const(x, c, 3i64)],
        );
        assert!(ged_implies(&sigma, &phi).is_implied());
        // Without r2 the chain breaks.
        let sigma1 = GedSet::from_vec(vec![Ged::conjunctive(
            "r1",
            wildcard_node(),
            vec![GedLiteral::eq_const(x, a, 1i64)],
            vec![GedLiteral::eq_const(x, b, 2i64)],
        )]);
        assert_eq!(ged_implies(&sigma1, &phi), GedImpOutcome::NotImplied);
    }

    /// A tautological disjunction is implied by the empty Σ — this is the
    /// case that *requires* Y-literal branching.
    #[test]
    fn tautological_disjunction_is_implied_by_nothing() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let x = gfd_graph::VarId::new(0);
        // Premise forces x.A to exist; consequence x.A ≤ 5 ∨ x.A ≥ 3 is a
        // tautology over any value.
        let phi = Ged::new(
            "taut",
            wildcard_node(),
            vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
            vec![
                vec![GedLiteral::cmp_const(x, a, CmpOp::Le, 5i64)],
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 3i64)],
            ],
        );
        assert!(ged_implies(&GedSet::new(), &phi).is_implied());
        // A non-tautological disjunction is not.
        let narrow = Ged::new(
            "narrow",
            wildcard_node(),
            vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
            vec![
                vec![GedLiteral::cmp_const(x, a, CmpOp::Le, 3i64)],
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 5i64)],
            ],
        );
        assert_eq!(
            ged_implies(&GedSet::new(), &narrow),
            GedImpOutcome::NotImplied
        );
    }

    /// Keys: Σ = { same email → same entity } implies the two-hop variant.
    #[test]
    fn key_implication_via_node_merging() {
        let mut vocab = Vocab::new();
        let person = vocab.label("person");
        let email = vocab.attr("email");
        let mk2 = || {
            let mut p = Pattern::new();
            p.add_node(person, "x");
            p.add_node(person, "y");
            p
        };
        let x = gfd_graph::VarId::new(0);
        let y = gfd_graph::VarId::new(1);
        let key = Ged::conjunctive(
            "email-key",
            mk2(),
            vec![GedLiteral::eq_attr(x, email, y, email)],
            vec![GedLiteral::id(x, y)],
        );
        let sigma = GedSet::from_vec(vec![key]);

        // Three-variable transitivity: x.email = y.email ∧ y.email =
        // z.email → x.id = z.id.
        let mut p3 = Pattern::new();
        p3.add_node(person, "x");
        p3.add_node(person, "y");
        p3.add_node(person, "z");
        let z = gfd_graph::VarId::new(2);
        let phi = Ged::conjunctive(
            "trans",
            p3,
            vec![
                GedLiteral::eq_attr(x, email, y, email),
                GedLiteral::eq_attr(y, email, z, email),
            ],
            vec![GedLiteral::id(x, z)],
        );
        assert!(ged_implies(&sigma, &phi).is_implied());

        // Without the key, no merging happens.
        assert_eq!(ged_implies(&GedSet::new(), &phi), GedImpOutcome::NotImplied);
    }

    /// An id consequence that Σ cannot force is not implied.
    #[test]
    fn unforced_id_is_not_implied() {
        let mut vocab = Vocab::new();
        let person = vocab.label("person");
        let mut p = Pattern::new();
        p.add_node(person, "x");
        p.add_node(person, "y");
        let x = gfd_graph::VarId::new(0);
        let y = gfd_graph::VarId::new(1);
        let phi = Ged::conjunctive("merge-all", p, vec![], vec![GedLiteral::id(x, y)]);
        assert_eq!(ged_implies(&GedSet::new(), &phi), GedImpOutcome::NotImplied);
    }

    /// Denial GEDs in Σ make any premise-sharing ψ vacuous.
    #[test]
    fn denial_in_sigma_blocks_the_premise() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let x = gfd_graph::VarId::new(0);
        let sigma = GedSet::from_vec(vec![Ged::denial(
            "no-a1",
            wildcard_node(),
            vec![GedLiteral::eq_const(x, a, 1i64)],
        )]);
        let phi = Ged::conjunctive(
            "phi",
            wildcard_node(),
            vec![GedLiteral::eq_const(x, a, 1i64)],
            vec![GedLiteral::eq_const(x, b, 9i64)],
        );
        // X = {x.A = 1} fires the denial: conflict, so implied.
        assert!(ged_implies(&sigma, &phi).is_implied());
    }

    /// Order-predicate premises interact with Σ's bounds.
    #[test]
    fn order_premise_conflicts_with_sigma_bound() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let x = gfd_graph::VarId::new(0);
        // Σ: every node has x.A < 5.
        let sigma = GedSet::from_vec(vec![Ged::conjunctive(
            "bound",
            wildcard_node(),
            vec![],
            vec![GedLiteral::cmp_const(x, a, CmpOp::Lt, 5i64)],
        )]);
        // ψ: x.A > 7 → x.B = 1. Premise conflicts with Σ: implied.
        let phi = Ged::conjunctive(
            "phi",
            wildcard_node(),
            vec![GedLiteral::cmp_const(x, a, CmpOp::Gt, 7i64)],
            vec![GedLiteral::eq_const(x, b, 1i64)],
        );
        assert!(ged_implies(&sigma, &phi).is_implied());
        // ψ′: x.A > 2 → x.B = 1 is consistent with the bound but B is
        // never forced: not implied.
        let phi2 = Ged::conjunctive(
            "phi2",
            wildcard_node(),
            vec![GedLiteral::cmp_const(x, a, CmpOp::Gt, 2i64)],
            vec![GedLiteral::eq_const(x, b, 1i64)],
        );
        assert_eq!(ged_implies(&sigma, &phi2), GedImpOutcome::NotImplied);
    }

    /// Disjunctive Σ-rules require the goal on every branch.
    #[test]
    fn disjunctive_sigma_implies_only_common_consequences() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let x = gfd_graph::VarId::new(0);
        // Σ: ∅ → (x.A = 1 ∧ x.B = 1) ∨ (x.A = 2 ∧ x.B = 1).
        let sigma = GedSet::from_vec(vec![Ged::new(
            "dis",
            wildcard_node(),
            vec![],
            vec![
                vec![
                    GedLiteral::eq_const(x, a, 1i64),
                    GedLiteral::eq_const(x, b, 1i64),
                ],
                vec![
                    GedLiteral::eq_const(x, a, 2i64),
                    GedLiteral::eq_const(x, b, 1i64),
                ],
            ],
        )]);
        // x.B = 1 holds on both branches: implied.
        let common = Ged::conjunctive(
            "common",
            wildcard_node(),
            vec![],
            vec![GedLiteral::eq_const(x, b, 1i64)],
        );
        assert!(ged_implies(&sigma, &common).is_implied());
        // x.A = 1 holds on one branch only: not implied.
        let partial = Ged::conjunctive(
            "partial",
            wildcard_node(),
            vec![],
            vec![GedLiteral::eq_const(x, a, 1i64)],
        );
        assert_eq!(ged_implies(&sigma, &partial), GedImpOutcome::NotImplied);
        // The disjunction x.A = 1 ∨ x.A = 2 is implied.
        let either = Ged::new(
            "either",
            wildcard_node(),
            vec![],
            vec![
                vec![GedLiteral::eq_const(x, a, 1i64)],
                vec![GedLiteral::eq_const(x, a, 2i64)],
            ],
        );
        assert!(ged_implies(&sigma, &either).is_implied());
    }
}
