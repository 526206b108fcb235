//! Stress and behaviour tests of the parallel runtime: splitting,
//! stealing, early termination, metrics, and worker-count invariance.

use gfd::prelude::*;
use std::time::Duration;

/// A workload whose matching is deliberately heavy: wildcard star
/// patterns over a shared dense pattern family create units with large
/// search trees — straggler territory.
fn heavy_sigma(vocab: &mut Vocab) -> DepSet {
    let t = vocab.label("hub");
    let e = vocab.label("link");
    let a = vocab.attr("attr");
    let mut gfds = Vec::new();
    // One fat pattern: a hub with many spokes (its canonical copy makes
    // every other rule's search tree wide). Six spokes give ~6^6 ≈ 47k
    // homomorphic matches pivoted at the hub — heavy enough to force
    // splits, small enough to finish fast (10 spokes would be 10^10).
    let mut fat = Pattern::new();
    let hub = fat.add_node(t, "hub");
    for i in 0..6 {
        let leaf = fat.add_node(t, format!("leaf{i}"));
        fat.add_edge(hub, e, leaf);
        fat.add_edge(leaf, e, hub);
    }
    gfds.push(Dependency::new(
        "fat",
        fat,
        vec![],
        vec![Literal::eq_const(VarId::new(0), a, 1i64)],
    ));
    // Several wildcard chain rules that match the fat copy in many ways.
    for i in 0..4 {
        let mut p = Pattern::new();
        let x = p.add_node(LabelId::WILDCARD, "x");
        let y = p.add_node(LabelId::WILDCARD, "y");
        let z = p.add_node(LabelId::WILDCARD, "z");
        p.add_edge(x, LabelId::WILDCARD, y);
        p.add_edge(y, LabelId::WILDCARD, z);
        gfds.push(Dependency::new(
            format!("chain{i}"),
            p,
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            vec![Literal::eq_attr(VarId::new(0), a, VarId::new(2), a)],
        ));
    }
    DepSet::from_vec(gfds)
}

#[test]
fn tiny_ttl_forces_splits_without_changing_answers() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let seq = gfd::seq_sat(&sigma);

    let cfg = ReasonConfig::with_workers(3).with_ttl(Duration::ZERO);
    let r = gfd::sat_with_config(&sigma, &cfg);
    assert_eq!(r.is_satisfiable(), seq.is_satisfiable());
    assert!(
        r.stats.units_split > 0,
        "TTL=0 on a heavy workload must split: {:?}",
        r.stats
    );
    // Split units were dispatched too.
    assert!(r.stats.units_dispatched >= r.stats.units_generated as u64);
}

#[test]
fn no_split_mode_never_splits() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let cfg = ReasonConfig::with_workers(3)
        .with_ttl(Duration::ZERO)
        .without_split();
    let r = gfd::sat_with_config(&sigma, &cfg);
    assert_eq!(r.stats.units_split, 0);
    assert!(r.is_satisfiable());
}

#[test]
fn all_units_are_processed_exactly_once_on_quiescent_runs() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let cfg = ReasonConfig::with_workers(4);
    let r = gfd::sat_with_config(&sigma, &cfg);
    assert!(!r.stats.early_terminated);
    assert_eq!(
        r.stats.units_dispatched,
        r.stats.units_generated as u64 + r.stats.units_split
    );
    // Per-worker stats were collected on the drain path.
    assert_eq!(r.stats.worker_busy.len(), 4);
}

#[test]
fn match_counts_are_stable_across_worker_counts() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let mut counts = Vec::new();
    for p in [1, 2, 4] {
        let r = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(p));
        assert!(r.is_satisfiable());
        counts.push(r.stats.matches);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}

#[test]
fn early_termination_reports_quickly_on_conflicts() {
    // Large satisfiable base + a conflict pair: the run must terminate
    // early rather than process everything.
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Yago2, 120, 5, Some(2));
    let cfg = ReasonConfig::with_workers(4);
    let r = gfd::sat_with_config(&w.sigma, &cfg);
    assert!(!r.is_satisfiable());
    assert!(r.stats.early_terminated);
}

#[test]
fn consequence_termination_for_implication() {
    let w = gfd::gen::synthetic_workload(60, 4, 3, 21);
    let implied: Vec<_> = w.probes.iter().filter(|p| p.expect_implied).collect();
    assert!(!implied.is_empty());
    for probe in implied {
        let r = gfd::imp_with_config(&w.sigma, &probe.phi, &ReasonConfig::with_workers(4));
        assert!(r.is_implied());
    }
}

#[test]
fn many_workers_on_tiny_input_is_fine() {
    // More workers than units: the runtime must not deadlock or lose
    // answers when most workers never receive work.
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "gfd only { pattern { node x: t } then { x.a = 1 } }",
        &mut vocab,
    )
    .unwrap()
    .deps;
    let r = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(16));
    assert!(r.is_satisfiable());
}

#[test]
fn repeated_runs_are_deterministic_in_outcome() {
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 40, 9, None);
    let expected = gfd::seq_sat(&w.sigma).is_satisfiable();
    for run in 0..5 {
        let r = gfd::sat_with_config(
            &w.sigma,
            &ReasonConfig::with_workers(3).with_ttl(Duration::from_micros(200)),
        );
        assert_eq!(r.is_satisfiable(), expected, "run {run} diverged");
    }
}

// ---- one door: `sat_with_config` / `imp_with_config` at `workers = p`
// against `seq_sat` / `seq_imp` (the same calls at `workers = 1`) ----

fn wildcard_unary(name: &str, lits: Vec<Literal>, premise: Vec<Literal>) -> Dependency {
    let mut p = Pattern::new();
    p.add_node(LabelId::WILDCARD, "x");
    Dependency::new(name, p, premise, lits)
}

#[test]
fn agrees_with_seq_sat_on_unsat_wildcard_conflict() {
    let mut vocab = Vocab::new();
    let a = vocab.attr("A");
    let x = VarId::new(0);
    let sigma = DepSet::from_vec(vec![
        wildcard_unary("phi5", vec![Literal::eq_const(x, a, 0i64)], vec![]),
        wildcard_unary("phi6", vec![Literal::eq_const(x, a, 1i64)], vec![]),
    ]);
    assert!(!gfd::seq_sat(&sigma).is_satisfiable());
    for p in [1, 2, 4] {
        let r = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(p));
        assert!(!r.is_satisfiable(), "p={p}");
        assert!(r.stats.early_terminated);
    }
}

/// The two-wildcard conflict at two workers: a worker or the catch-up
/// may meet it first (the catch-up in about 2 % of runs), and either way
/// the run reports that it ended on it.
#[test]
fn early_termination_is_reported_whoever_meets_the_conflict() {
    let mut vocab = Vocab::new();
    let a = vocab.attr("A");
    let x = VarId::new(0);
    let sigma = DepSet::from_vec(vec![
        wildcard_unary("phi5", vec![Literal::eq_const(x, a, 0i64)], vec![]),
        wildcard_unary("phi6", vec![Literal::eq_const(x, a, 1i64)], vec![]),
    ]);
    for run in 0..500 {
        let r = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(2));
        assert!(
            matches!(r.outcome, SatOutcome::Unsatisfiable(_)),
            "run {run}"
        );
        assert!(r.stats.early_terminated, "run {run}");
    }
}

#[test]
fn agrees_with_seq_sat_on_satisfiable_set() {
    let mut vocab = Vocab::new();
    let t = vocab.label("t");
    let e = vocab.label("e");
    let a = vocab.attr("a");
    let b = vocab.attr("b");
    let mut gfds = Vec::new();
    for i in 0..6 {
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        gfds.push(Dependency::new(
            format!("g{i}"),
            p,
            if i % 2 == 0 {
                vec![]
            } else {
                vec![Literal::eq_const(x, a, 1i64)]
            },
            vec![Literal::eq_const(x, a, 1i64), Literal::eq_attr(x, b, y, b)],
        ));
    }
    let sigma = DepSet::from_vec(gfds);
    assert!(gfd::seq_sat(&sigma).is_satisfiable());
    for p in [1, 2, 4, 8] {
        let r = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(p));
        // The model must satisfy Σ.
        let model = r
            .model()
            .unwrap_or_else(|| panic!("p={p}: not satisfiable"));
        assert!(gfd::graph_satisfies_all(model, &sigma));
    }
}

#[test]
fn variants_agree() {
    let mut vocab = Vocab::new();
    let a = vocab.attr("A");
    let b = vocab.attr("B");
    let x = VarId::new(0);
    // Chain: seed a=1; a=1 → b=1; b=1 ∧ a=1 → conflict on a.
    let sigma = DepSet::from_vec(vec![
        wildcard_unary("seed", vec![Literal::eq_const(x, a, 1i64)], vec![]),
        wildcard_unary(
            "prop",
            vec![Literal::eq_const(x, b, 1i64)],
            vec![Literal::eq_const(x, a, 1i64)],
        ),
        wildcard_unary(
            "deny",
            vec![Literal::eq_const(x, a, 2i64)],
            vec![Literal::eq_const(x, b, 1i64)],
        ),
    ]);
    let expect = gfd::seq_sat(&sigma).is_satisfiable();
    let base = ReasonConfig::with_workers(3);
    let no_order = ReasonConfig {
        use_dependency_order: false,
        ..base.clone()
    };
    for cfg in [
        base.clone(),
        base.clone().without_pipeline(),
        base.clone().without_split(),
        no_order,
    ] {
        assert_eq!(
            gfd::sat_with_config(&sigma, &cfg).is_satisfiable(),
            expect,
            "{cfg:?}"
        );
    }
}

#[test]
fn empty_sigma_is_satisfiable() {
    let r = gfd::sat_with_config(&DepSet::new(), &ReasonConfig::with_workers(2));
    assert!(r.is_satisfiable());
}

/// The paper's Example 8: Σ = {ϕ11, ϕ12} implies ϕ13 (consequence
/// deduced) and ϕ14 (conflict).
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
fn example8_matches_sequential_across_worker_counts() {
    let (sigma, phi13, phi14) = example8();
    assert!(gfd::seq_imp(&sigma, &phi13).is_implied());
    assert!(gfd::seq_imp(&sigma, &phi14).is_implied());
    for p in [1, 2, 4] {
        let cfg = ReasonConfig::with_workers(p);
        let r13 = gfd::imp_with_config(&sigma, &phi13, &cfg);
        assert!(r13.is_implied(), "phi13 p={p}: {:?}", r13.outcome);
        let r14 = gfd::imp_with_config(&sigma, &phi14, &cfg);
        assert!(r14.is_implied(), "phi14 p={p}: {:?}", r14.outcome);
    }
}

#[test]
fn not_implied_matches_sequential() {
    let (sigma, phi13, _) = example8();
    // Remove phi12: phi13 no longer follows.
    let smaller = DepSet::from_vec(vec![sigma.as_slice()[0].clone()]);
    assert!(!gfd::seq_imp(&smaller, &phi13).is_implied());
    for p in [1, 3] {
        let r = gfd::imp_with_config(&smaller, &phi13, &ReasonConfig::with_workers(p));
        assert!(!r.is_implied(), "p={p}");
    }
}

#[test]
fn ablation_variants_agree() {
    let (sigma, phi13, phi14) = example8();
    let base = ReasonConfig::with_workers(2);
    for phi in [&phi13, &phi14] {
        for cfg in [
            base.clone(),
            base.clone().without_pipeline(),
            base.clone().without_split(),
        ] {
            assert!(
                gfd::imp_with_config(&sigma, phi, &cfg).is_implied(),
                "{cfg:?}"
            );
        }
    }
}

#[test]
fn trivial_cases_short_circuit() {
    let (sigma, _, _) = example8();
    let mut vocab = Vocab::new();
    let mut q = Pattern::new();
    let x = q.add_node(vocab.label("a"), "x");
    let a = vocab.attr("A");
    // Empty consequence.
    let trivial = Dependency::new("t", q.clone(), vec![], vec![]);
    let r = gfd::imp_with_config(&sigma, &trivial, &ReasonConfig::with_workers(2));
    assert!(r.is_implied());
    assert_eq!(r.stats.units_dispatched, 0);
    // Inconsistent premise.
    let inconsistent = Dependency::new(
        "i",
        q,
        vec![Literal::eq_const(x, a, 1i64), Literal::eq_const(x, a, 2i64)],
        vec![Literal::eq_const(x, a, 3i64)],
    );
    let r = gfd::imp_with_config(&sigma, &inconsistent, &ReasonConfig::with_workers(2));
    assert!(matches!(
        r.outcome,
        ImpOutcome::Implied(ImpliedVia::PremiseInconsistent)
    ));
}
