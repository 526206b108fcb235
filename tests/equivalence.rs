//! Cross-algorithm equivalence: SeqSat ≡ ParSat ≡ chase_sat and
//! SeqImp ≡ ParImp ≡ chase_imp on randomized inputs.
//!
//! The generators here produce *raw* random GFDs (constants drawn from a
//! two-value pool), so both satisfiable and unsatisfiable sets, and both
//! implied and non-implied probes, arise naturally.

use gfd::prelude::*;
use proptest::prelude::*;

/// A small random GFD over ≤3 labels, ≤2 attributes, constants {0, 1}.
fn arb_gfd(max_k: usize) -> impl Strategy<Value = Dependency> {
    (
        1usize..=max_k,
        proptest::collection::vec((0usize..4, 1u32..3, 0usize..4), 0..5),
        proptest::collection::vec(
            (
                0usize..4,
                0u32..2,
                proptest::option::of(0i64..2),
                0usize..4,
                0u32..2,
            ),
            0..3,
        ),
        proptest::collection::vec(
            (
                0usize..4,
                0u32..2,
                proptest::option::of(0i64..2),
                0usize..4,
                0u32..2,
            ),
            1..3,
        ),
        0u32..3, // extra label entropy
    )
        .prop_map(move |(k, edges, pre, post, label_seed)| {
            let mut p = Pattern::new();
            for i in 0..k {
                // Label 0 is the wildcard; 1..=3 concrete.
                let l = (i as u32 + label_seed) % 4;
                p.add_node(LabelId(l), format!("x{i}"));
            }
            for (s, l, d) in edges {
                p.add_edge(VarId::new(s % k), LabelId(l), VarId::new(d % k));
            }
            let mk = |items: Vec<(usize, u32, Option<i64>, usize, u32)>| {
                items
                    .into_iter()
                    .map(|(v, a, c, v2, a2)| match c {
                        Some(c) => Literal::eq_const(VarId::new(v % k), AttrId(a), Value::Int(c)),
                        None => Literal::eq_attr(
                            VarId::new(v % k),
                            AttrId(a),
                            VarId::new(v2 % k),
                            AttrId(a2),
                        ),
                    })
                    .collect::<Vec<_>>()
            };
            Dependency::new("g", p, mk(pre), mk(post))
        })
}

fn arb_sigma() -> impl Strategy<Value = DepSet> {
    proptest::collection::vec(arb_gfd(3), 1..5).prop_map(DepSet::from_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// All three satisfiability implementations give the same verdict, and
    /// positive verdicts come with verified models.
    #[test]
    fn satisfiability_equivalence(sigma in arb_sigma()) {
        let seq = gfd::seq_sat(&sigma);
        let chase = gfd::chase_sat(&sigma);
        prop_assert_eq!(seq.is_satisfiable(), chase.is_satisfiable());
        let par = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(2));
        prop_assert_eq!(seq.is_satisfiable(), par.is_satisfiable());
        if let Some(model) = seq.model() {
            prop_assert!(gfd::graph_satisfies_all(model, &sigma),
                "SeqSat's model must satisfy Σ");
        }
        if let SatOutcome::Satisfiable(model) = &par.outcome {
            prop_assert!(gfd::graph_satisfies_all(model, &sigma),
                "ParSat's model must satisfy Σ");
        }
    }

    /// All three implication implementations agree.
    #[test]
    fn implication_equivalence(sigma in arb_sigma(), phi in arb_gfd(3)) {
        let seq = gfd::seq_imp(&sigma, &phi);
        let chase = gfd::chase_imp(&sigma, &phi);
        prop_assert_eq!(seq.is_implied(), chase.is_implied(),
            "seq {:?} vs chase {:?}", seq.outcome, chase.outcome);
        let par = gfd::imp_with_config(&sigma, &phi, &ReasonConfig::with_workers(2));
        prop_assert_eq!(seq.is_implied(), par.is_implied(),
            "seq {:?} vs par {:?}", seq.outcome, par.outcome);
    }

    /// Ordering and pruning options never change answers (Church–Rosser).
    #[test]
    fn options_do_not_change_answers(sigma in arb_sigma(), phi in arb_gfd(2)) {
        let baseline_sat = gfd::seq_sat(&sigma).is_satisfiable();
        let baseline_imp = gfd::seq_imp(&sigma, &phi).is_implied();
        for (dep, prune) in [(false, false), (false, true), (true, false)] {
            let cfg = ReasonConfig {
                use_dependency_order: dep,
                prune_components: prune,
                ..ReasonConfig::with_workers(1)
            };
            prop_assert_eq!(gfd::sat_with_config(&sigma, &cfg).is_satisfiable(), baseline_sat);
            prop_assert_eq!(gfd::imp_with_config(&sigma, &phi, &cfg).is_implied(), baseline_imp);
        }
    }

    /// Implication respects the semantic definition on witnesses: if
    /// Σ |= ϕ then every model of Σ we can build satisfies ϕ.
    #[test]
    fn implied_gfds_hold_in_models(sigma in arb_sigma(), phi in arb_gfd(2)) {
        let imp = gfd::seq_imp(&sigma, &phi);
        let sat = gfd::seq_sat(&sigma);
        if imp.is_implied() {
            if let Some(model) = sat.model() {
                prop_assert!(gfd::graph_satisfies(model, &phi),
                    "Σ |= ϕ but a model of Σ violates ϕ");
            }
        }
    }
}

/// Satisfiable-by-construction workloads agree across algorithms too
/// (deterministic, heavier than the proptest cases).
#[test]
fn generated_workload_equivalence() {
    for seed in 0..3 {
        let w = gfd::gen::synthetic_workload(25, 4, 3, seed);
        let seq = gfd::seq_sat(&w.sigma);
        assert!(seq.is_satisfiable());
        for p in [1, 3] {
            assert!(
                gfd::sat_with_config(&w.sigma, &ReasonConfig::with_workers(p)).is_satisfiable()
            );
        }
        for probe in &w.probes {
            let expected = probe.expect_implied;
            assert_eq!(gfd::seq_imp(&w.sigma, &probe.phi).is_implied(), expected);
            assert_eq!(gfd::chase_imp(&w.sigma, &probe.phi).is_implied(), expected);
            assert_eq!(
                gfd::imp_with_config(&w.sigma, &probe.phi, &ReasonConfig::with_workers(2))
                    .is_implied(),
                expected
            );
        }
    }
}
