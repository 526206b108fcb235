//! GED satisfiability: the small-model search with disjunction branching.
//!
//! The algorithm generalizes `SeqSat` (§IV-C) along the lines of the GED
//! chase (Fan & Lu, PODS 2017):
//!
//! 1. Build the canonical graph `GΣ` (disjoint union of all patterns).
//! 2. Run a **deterministic fixpoint**: find matches of every pattern in
//!    the current *quotient* of `GΣ` (id literals merge nodes, so matching
//!    re-runs whenever the quotient changes); for a match whose premise is
//!    entailed by the store, enforce the consequence when it is a single
//!    conjunction, fail the branch on a denial, and record a **choice
//!    point** when it is a proper disjunction.
//! 3. At the fixpoint, branch: first over recorded consequence disjuncts,
//!    then over *undetermined grounded premise literals* — a premise
//!    literal whose attribute classes all exist but which is neither
//!    entailed nor refuted is branched both ways (`¬ℓ` first, since a
//!    falsified premise needs no enforcement). Premise literals mentioning
//!    absent attributes are falsified by omission, exactly like the
//!    paper's schemaless semantics; premise id literals are falsified by
//!    keeping nodes distinct.
//!
//! The search is exact and exponential in the worst case, as it must be
//! (GFD satisfiability is already coNP-complete). Every branch asserts at
//! least one new fact over a finite fact space, so it terminates.
//!
//! Since the scheduler port, the search itself lives in
//! [`crate::driver`]: each open branch is a work unit on the shared
//! `gfd-runtime` work-stealing scheduler, and [`ged_sat`] is simply the
//! `workers = 1` instantiation of that driver — there is no separate
//! sequential code path.

use crate::driver::{ged_sat_with_config, GedReasonConfig};
use crate::ged::GedSet;
use crate::store::{GedStore, Quotient};
use gfd_core::Interrupt;
use gfd_graph::Graph;

/// The result of a satisfiability check.
#[derive(Clone, Debug)]
pub enum GedSatOutcome {
    /// A model exists. `witness` is a concrete model when integer value
    /// assignment succeeded (see [`GedSatOutcome::witness`]).
    Satisfiable {
        /// A concrete model of Σ, when one could be extracted.
        witness: Option<Graph>,
    },
    /// No model exists.
    Unsatisfiable,
    /// The search was cut short — branch budget, deadline, unit budget,
    /// or a panic abort — before a verdict.
    Unknown(Interrupt),
}

impl GedSatOutcome {
    /// Is the set satisfiable?
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, GedSatOutcome::Satisfiable { .. })
    }

    /// The extracted witness model, if any.
    pub fn witness(&self) -> Option<&Graph> {
        match self {
            GedSatOutcome::Satisfiable { witness } => witness.as_ref(),
            _ => None,
        }
    }
}

/// Check satisfiability of a set of GEDs — the sequential (`workers = 1`)
/// instantiation of the shared scheduler driver, under the default
/// branch budget (10⁶, far above anything the tests or generators
/// produce); [`ged_sat_with_config`] chooses the budget.
pub fn ged_sat(sigma: &GedSet) -> GedSatOutcome {
    ged_sat_with_config(sigma, &GedReasonConfig::default()).outcome
}

/// Try to extract a concrete model: assign every attribute class a value
/// consistent with the order network (constants pinned, distinct classes
/// distinct values), and decline with `None` when the network needs
/// non-integer in-between values (see [`crate::order::solve_integers`]).
pub(crate) fn extract_witness(store: &mut GedStore, base: &Graph) -> Option<Graph> {
    let assignment = crate::order::solve_integers(store.net())?;
    let Quotient { mut graph, of, .. } = store.quotient(base);
    for (root, attr, var) in store.attr_assignments() {
        graph.set_attr_id(of[root.index()], attr, assignment[var.index()]);
    }
    Some(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::{CmpOp, Ged, GedLiteral};
    use crate::validate::ged_graph_satisfies;
    use gfd_graph::{LabelId, Pattern, VarId, Vocab};

    /// A definite UNSAT verdict — an `Unknown` is not one.
    fn unsat(geds: Vec<Ged>) -> bool {
        matches!(
            ged_sat(&GedSet::from_vec(geds)),
            GedSatOutcome::Unsatisfiable
        )
    }

    #[test]
    fn empty_set_is_satisfiable() {
        assert!(ged_sat(&GedSet::new()).is_satisfiable());
    }

    #[test]
    fn papers_example2_phi5_phi6_conflict() {
        // ϕ5 = Q5[x](∅ → x.A = 0), ϕ6 = Q5[x](∅ → x.A = 1) with a
        // wildcard single-node pattern: unsatisfiable.
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let mut p1 = Pattern::new();
        let x1 = p1.add_node(LabelId::WILDCARD, "x");
        let mut p2 = Pattern::new();
        let x2 = p2.add_node(LabelId::WILDCARD, "x");
        let phi5 = Ged::conjunctive("phi5", p1, vec![], vec![GedLiteral::eq_const(x1, a, 0i64)]);
        let phi6 = Ged::conjunctive("phi6", p2, vec![], vec![GedLiteral::eq_const(x2, a, 1i64)]);
        assert!(ged_sat(&GedSet::from_vec(vec![phi5.clone()])).is_satisfiable());
        assert!(ged_sat(&GedSet::from_vec(vec![phi6.clone()])).is_satisfiable());
        assert!(unsat(vec![phi5, phi6]));
    }

    #[test]
    fn order_bounds_conflict() {
        // x.A < 5 and x.A > 7 on the same wildcard node: unsatisfiable.
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let mk = |name: &str, op: CmpOp, c: i64| {
            let mut p = Pattern::new();
            let x = p.add_node(LabelId::WILDCARD, "x");
            Ged::conjunctive(name, p, vec![], vec![GedLiteral::cmp_const(x, a, op, c)])
        };
        let lo = mk("lo", CmpOp::Lt, 5);
        let hi = mk("hi", CmpOp::Gt, 7);
        assert!(unsat(vec![lo, hi]));
    }

    #[test]
    fn order_bounds_compatible() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let mut p1 = Pattern::new();
        let x1 = p1.add_node(LabelId::WILDCARD, "x");
        let mut p2 = Pattern::new();
        let x2 = p2.add_node(LabelId::WILDCARD, "x");
        let lo = Ged::conjunctive(
            "lo",
            p1,
            vec![],
            vec![GedLiteral::cmp_const(x1, a, CmpOp::Ge, 5i64)],
        );
        let hi = Ged::conjunctive(
            "hi",
            p2,
            vec![],
            vec![GedLiteral::cmp_const(x2, a, CmpOp::Le, 9i64)],
        );
        let out = ged_sat(&GedSet::from_vec(vec![lo, hi]));
        assert!(out.is_satisfiable());
    }

    #[test]
    fn disjunction_rescues_satisfiability() {
        // ∅ → (x.A = 0) with a second rule ∅ → (x.A = 1 ∨ x.B = 2):
        // the second disjunct avoids the clash.
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let mut p1 = Pattern::new();
        let x1 = p1.add_node(LabelId::WILDCARD, "x");
        let mut p2 = Pattern::new();
        let x2 = p2.add_node(LabelId::WILDCARD, "x");
        let base = Ged::conjunctive("base", p1, vec![], vec![GedLiteral::eq_const(x1, a, 0i64)]);
        let dis = Ged::new(
            "dis",
            p2,
            vec![],
            vec![
                vec![GedLiteral::eq_const(x2, a, 1i64)],
                vec![GedLiteral::eq_const(x2, b, 2i64)],
            ],
        );
        assert!(ged_sat(&GedSet::from_vec(vec![base, dis])).is_satisfiable());
    }

    #[test]
    fn disjunction_with_all_branches_conflicting_is_unsat() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let mut p1 = Pattern::new();
        let x1 = p1.add_node(LabelId::WILDCARD, "x");
        let mut p2 = Pattern::new();
        let x2 = p2.add_node(LabelId::WILDCARD, "x");
        let base = Ged::conjunctive("base", p1, vec![], vec![GedLiteral::eq_const(x1, a, 0i64)]);
        let dis = Ged::new(
            "dis",
            p2,
            vec![],
            vec![
                vec![GedLiteral::eq_const(x2, a, 1i64)],
                vec![GedLiteral::eq_const(x2, a, 2i64)],
            ],
        );
        assert!(unsat(vec![base, dis]));
    }

    #[test]
    fn id_literal_merges_and_propagates_conflict() {
        // Pattern x --e--> y (same label). Rule 1: merge x and y.
        // Rule 2 on a single node with a self-loop: after merging, the
        // self-loop exists in the quotient... instead, force a conflict
        // through merged attributes: x.A = 1 and y.A = 2 plus x.id = y.id.
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("A");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        let rule = Ged::conjunctive(
            "merge-and-clash",
            p,
            vec![],
            vec![
                GedLiteral::id(x, y),
                GedLiteral::eq_const(x, a, 1i64),
                GedLiteral::eq_const(y, a, 2i64),
            ],
        );
        assert!(unsat(vec![rule]));
    }

    #[test]
    fn id_merge_without_attribute_clash_is_satisfiable() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("A");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        let rule = Ged::conjunctive(
            "merge",
            p,
            vec![],
            vec![GedLiteral::id(x, y), GedLiteral::eq_const(x, a, 1i64)],
        );
        let sigma = GedSet::from_vec(vec![rule]);
        let out = ged_sat(&sigma);
        assert!(out.is_satisfiable());
        let w = out.witness().expect("witness should extract");
        // The witness quotients x and y into one node with a self-loop.
        assert_eq!(w.node_count(), 1);
        assert!(ged_graph_satisfies(w, sigma.get(gfd_graph::GfdId::new(0))));
    }

    #[test]
    fn premise_falsified_by_omission_keeps_sat() {
        // ψ: x.A = 1 → x.B = 1 ∧ x.B = 2 (conflicting consequence). The
        // premise can be falsified by omitting A: satisfiable.
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let mut p = Pattern::new();
        let x = p.add_node(LabelId::WILDCARD, "x");
        let rule = Ged::conjunctive(
            "guarded-clash",
            p,
            vec![GedLiteral::eq_const(x, a, 1i64)],
            vec![
                GedLiteral::eq_const(x, b, 1i64),
                GedLiteral::eq_const(x, b, 2i64),
            ],
        );
        assert!(ged_sat(&GedSet::from_vec(vec![rule])).is_satisfiable());
    }

    #[test]
    fn grounded_premise_branching_finds_the_escape() {
        // Rule 1 forces x.A to exist with x.A ≥ 0. Rule 2: x.A = 5 →
        // conflict. The search must pick x.A ≠ 5 (premise falsified).
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let mut p1 = Pattern::new();
        let x1 = p1.add_node(LabelId::WILDCARD, "x");
        let mut p2 = Pattern::new();
        let x2 = p2.add_node(LabelId::WILDCARD, "x");
        let force = Ged::conjunctive(
            "force",
            p1,
            vec![],
            vec![GedLiteral::cmp_const(x1, a, CmpOp::Ge, 0i64)],
        );
        let guard = Ged::conjunctive(
            "guard",
            p2,
            vec![GedLiteral::eq_const(x2, a, 5i64)],
            vec![
                GedLiteral::eq_const(x2, b, 1i64),
                GedLiteral::eq_const(x2, b, 2i64),
            ],
        );
        assert!(ged_sat(&GedSet::from_vec(vec![force, guard])).is_satisfiable());
    }

    #[test]
    fn covering_premises_over_forced_attribute_are_unsat() {
        // x.A forced to exist; ψ1: x.A < 5 → false; ψ2: x.A ≥ 5 → false.
        // Every value of x.A fires one of them: unsatisfiable. (This is
        // exactly the case premise branching exists for.)
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let mk_pat = || {
            let mut p = Pattern::new();
            p.add_node(LabelId::WILDCARD, "x");
            p
        };
        let p1 = mk_pat();
        let p2 = mk_pat();
        let p3 = mk_pat();
        let x = VarId::new(0);
        let force = Ged::conjunctive(
            "force",
            p1,
            vec![],
            vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
        );
        let low = Ged::denial(
            "low",
            p2,
            vec![GedLiteral::cmp_const(x, a, CmpOp::Lt, 5i64)],
        );
        let high = Ged::denial(
            "high",
            p3,
            vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 5i64)],
        );
        assert!(unsat(vec![force, low, high]));
    }

    #[test]
    fn witness_satisfies_sigma_when_extracted() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let rule = Ged::conjunctive(
            "two-attrs",
            p,
            vec![],
            vec![
                GedLiteral::eq_const(x, a, 3i64),
                GedLiteral::cmp_const(x, b, CmpOp::Gt, 10i64),
            ],
        );
        let sigma = GedSet::from_vec(vec![rule]);
        let out = ged_sat(&sigma);
        assert!(out.is_satisfiable());
        let w = out.witness().expect("integer witness should extract");
        for (_, ged) in sigma.iter() {
            assert!(ged_graph_satisfies(w, ged), "witness violates {}", ged.name);
        }
    }
}
