//! Cross-crate equivalence: the GED reasoner restricted to plain GFDs
//! must agree with the core algorithms — `ged_sat` ≡ `seq_sat` and
//! `ged_implies` ≡ `seq_imp` on lifted rule sets. This pins the §IX
//! extension to the paper's base semantics.
//!
//! Since the scheduler port, the suite also pins the branch-parallel
//! driver to the sequential search: every worker count (`GFD_EQ_WORKERS`
//! overrides the default `{1, 2, 8}` sweep, the same convention as
//! `scheduler_equivalence`) under TTL-zero forced splitting must
//! produce the sequential answers, including on
//! budget-capped rule sets where both sides must report "unknown".
//!
//! The features plain GFDs lack — order operators, disjunction, id
//! literals, denials — are pinned by `ged_feature_oracle`: seeded
//! generated documents checked against direct validation, the sequential
//! verdict, member implication and the resolution fixpoint.

use gfd::core::Interrupt;
use gfd::ged::driver::{ged_implies_with_config, ged_sat_with_config, GedReasonConfig};
use gfd::ged::{
    ged_implies, ged_sat, CmpOp, Ged, GedImpOutcome, GedLiteral, GedSatOutcome, GedSet,
};
use gfd::prelude::*;
use std::time::Duration;

fn lift_rule(gfd: &Dependency) -> Ged {
    Ged::from_dependency(gfd).expect("a literal consequence")
}

fn lift(sigma: &DepSet) -> GedSet {
    GedSet::from_vec(sigma.iter().map(|(_, g)| lift_rule(g)).collect())
}

/// Worker counts to sweep: `GFD_EQ_WORKERS=n` pins a single count (the CI
/// matrix), default is {1, 2, 8}.
fn worker_counts() -> Vec<usize> {
    match std::env::var("GFD_EQ_WORKERS") {
        Ok(v) => vec![v.parse().expect("GFD_EQ_WORKERS must be an integer")],
        Err(_) => vec![1, 2, 8],
    }
}

/// The definite verdict of a GED satisfiability run; an `Unknown` fails
/// the test, as the panicking wrapper it replaces did.
fn sat_verdict(out: &GedSatOutcome) -> bool {
    assert!(
        !matches!(out, GedSatOutcome::Unknown(_)),
        "no verdict: {out:?}"
    );
    out.is_satisfiable()
}

/// The definite verdict of a GED implication run; an `Unknown` fails.
fn imp_verdict(out: &GedImpOutcome) -> bool {
    assert!(
        !matches!(out, GedImpOutcome::Unknown(_)),
        "no verdict: {out:?}"
    );
    out.is_implied()
}

/// The scheduler config swept per worker count: TTL-zero forces a split
/// attempt after every explored branch.
fn sched_config(p: usize) -> GedReasonConfig {
    GedReasonConfig::with_workers(p).with_ttl(Duration::ZERO)
}

/// Small hand-built rule sets with known answers, as DSL documents.
const CASES: &[(&str, bool)] = &[
    // The paper's Example 2, ϕ5/ϕ6: same wildcard node, conflicting
    // constants.
    (
        "gfd phi5 { pattern { node x: _ } then { x.A = 0 } }
         gfd phi6 { pattern { node x: _ } then { x.A = 1 } }",
        false,
    ),
    // One rule alone is satisfiable.
    ("gfd phi5 { pattern { node x: _ } then { x.A = 0 } }", true),
    // Premise-guarded conflict: avoidable by not binding the premise.
    (
        "gfd a { pattern { node x: t } when { x.g = 1 } then { x.A = 0 } }
         gfd b { pattern { node x: t } when { x.g = 1 } then { x.A = 1 } }",
        true,
    ),
    // ∅-premise chain forcing the conflict through two hops (Example 4
    // flavour).
    (
        "gfd r1 { pattern { node x: t } then { x.B = 1 } }
         gfd r2 { pattern { node x: t } when { x.B = 1 } then { x.C = 1 } }
         gfd r3 { pattern { node x: t } when { x.C = 1 } then { x.A = 1 } }
         gfd r4 { pattern { node x: t } then { x.A = 0 } }",
        false,
    ),
    // Cross-pattern interaction: concrete labels vs wildcard.
    (
        "gfd w { pattern { node x: _ } then { x.A = 7 } }
         gfd c { pattern { node x: place } then { x.A = 7 } }",
        true,
    ),
    // Attribute-equality transitivity conflict.
    (
        "gfd e1 { pattern { node x: t } then { x.A = x.B } }
         gfd e2 { pattern { node x: t } then { x.B = 5 } }
         gfd e3 { pattern { node x: t } then { x.A = 6 } }",
        false,
    ),
];

#[test]
fn hand_built_sat_cases_agree() {
    for (src, expected) in CASES {
        let mut vocab = Vocab::new();
        let sigma = gfd::dsl::parse_document(src, &mut vocab).unwrap().deps;
        let core = gfd::seq_sat(&sigma).is_satisfiable();
        let ged = sat_verdict(&ged_sat(&lift(&sigma)));
        assert_eq!(core, *expected, "core wrong on:\n{src}");
        assert_eq!(ged, *expected, "ged wrong on:\n{src}");
    }
}

#[test]
fn generated_workloads_sat_agree() {
    // Satisfiable-by-construction mined-style sets, and conflict-chain
    // variants, at a size the branching GED search handles comfortably.
    for seed in [1u64, 7, 23] {
        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, None);
        let core = gfd::seq_sat(&w.sigma).is_satisfiable();
        let ged = sat_verdict(&ged_sat(&lift(&w.sigma)));
        assert_eq!(core, ged, "sat diverged on satisfiable seed {seed}");
        assert!(core, "workload should be satisfiable");

        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, Some(2));
        let core = gfd::seq_sat(&w.sigma).is_satisfiable();
        let ged = sat_verdict(&ged_sat(&lift(&w.sigma)));
        assert_eq!(core, ged, "sat diverged on unsat seed {seed}");
        assert!(!core, "chain workload should be unsatisfiable");
    }
}

#[test]
fn generated_probes_imp_agree() {
    for seed in [3u64, 11] {
        let w = gfd::gen::synthetic_workload(10, 3, 2, seed);
        let sigma_ged = lift(&w.sigma);
        for probe in &w.probes {
            let core = gfd::seq_imp(&w.sigma, &probe.phi).is_implied();
            let ged = imp_verdict(&ged_implies(&sigma_ged, &lift_rule(&probe.phi)));
            assert_eq!(
                core, ged,
                "imp diverged on probe {} (seed {seed})",
                probe.phi.name
            );
            assert_eq!(core, probe.expect_implied, "probe label wrong");
        }
    }
}

#[test]
fn implication_cases_agree() {
    let cases = [
        // ϕ13 flavour: chained deduction.
        (
            "gfd r1 { pattern { node x: t } when { x.A = 1 } then { x.B = 2 } }
             gfd r2 { pattern { node x: t } when { x.B = 2 } then { x.C = 3 } }",
            "gfd phi { pattern { node x: t } when { x.A = 1 } then { x.C = 3 } }",
            true,
        ),
        // ϕ14 flavour: premise inconsistent with Σ.
        (
            "gfd r1 { pattern { node x: t } then { x.A = 1 } }",
            "gfd phi { pattern { node x: t } when { x.A = 0 } then { x.Z = 9 } }",
            true,
        ),
        // Not implied: nothing forces the consequence.
        (
            "gfd r1 { pattern { node x: t } when { x.A = 1 } then { x.B = 2 } }",
            "gfd phi { pattern { node x: t } when { x.A = 1 } then { x.C = 3 } }",
            false,
        ),
        // Pattern-structure sensitivity: the premise pattern has an edge
        // the rule's pattern does not need.
        (
            "gfd r1 { pattern { node x: t node y: t edge x -e-> y } then { x.A = 1 } }",
            "gfd phi { pattern { node x: t } then { x.A = 1 } }",
            false,
        ),
    ];
    for (sigma_src, phi_src, expected) in cases {
        let mut vocab = Vocab::new();
        let sigma = gfd::dsl::parse_document(sigma_src, &mut vocab)
            .unwrap()
            .deps;
        let phi = gfd::dsl::parse_dependency(phi_src, &mut vocab).unwrap();
        let core = gfd::seq_imp(&sigma, &phi).is_implied();
        let ged = imp_verdict(&ged_implies(&lift(&sigma), &lift_rule(&phi)));
        assert_eq!(core, expected, "core wrong on:\n{sigma_src}\n|= {phi_src}");
        assert_eq!(ged, expected, "ged wrong on:\n{sigma_src}\n|= {phi_src}");
    }
}

/// The scheduled search at every worker count with TTL-zero forced
/// splitting agrees with the sequential `ged_sat` on
/// satisfiable and unsatisfiable sets.
#[test]
fn scheduled_sat_agrees_with_sequential() {
    let mut cases: Vec<GedSet> = Vec::new();
    for (src, _) in CASES {
        let mut vocab = Vocab::new();
        cases.push(lift(
            &gfd::dsl::parse_document(src, &mut vocab).unwrap().deps,
        ));
    }
    for seed in [1u64, 23] {
        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, None);
        cases.push(lift(&w.sigma));
        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, Some(2));
        cases.push(lift(&w.sigma));
    }
    for (i, sigma) in cases.iter().enumerate() {
        let expected = sat_verdict(&ged_sat(sigma));
        for p in worker_counts() {
            let out = ged_sat_with_config(sigma, &sched_config(p)).outcome;
            assert_eq!(sat_verdict(&out), expected, "sat diverged: case {i} p={p}");
            // Any witness a parallel run extracts must be a model.
            if let Some(wit) = out.witness() {
                for (_, ged) in sigma.iter() {
                    assert!(
                        gfd::ged::ged_graph_satisfies(wit, ged),
                        "case {i} p={p}: witness violates {}",
                        ged.name
                    );
                }
            }
        }
    }
}

/// Implication with disjunctions, order predicates and id literals —
/// the branching cases the GFD driver never sees — is worker-count
/// and split-order invariant.
#[test]
fn scheduled_imp_agrees_with_sequential() {
    let mut vocab = Vocab::new();
    let a = vocab.attr("A");
    let email = vocab.attr("email");
    let person = vocab.label("person");
    let x = gfd::graph::VarId::new(0);
    let y = gfd::graph::VarId::new(1);
    let wildcard = || {
        let mut p = Pattern::new();
        p.add_node(gfd::graph::LabelId::WILDCARD, "x");
        p
    };
    let two_persons = || {
        let mut p = Pattern::new();
        p.add_node(person, "x");
        p.add_node(person, "y");
        p
    };
    // (Σ, ψ) pairs exercising every branch source: consequence
    // disjunction, premise-literal splitting, Y-literal splitting, node
    // merging via keys.
    let cases: Vec<(GedSet, Ged)> = vec![
        (
            GedSet::from_vec(vec![Ged::new(
                "dis",
                wildcard(),
                vec![],
                vec![
                    vec![GedLiteral::eq_const(x, a, 1i64)],
                    vec![GedLiteral::eq_const(x, a, 2i64)],
                ],
            )]),
            Ged::conjunctive(
                "ge1",
                wildcard(),
                vec![],
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 1i64)],
            ),
        ),
        (
            GedSet::new(),
            Ged::new(
                "taut",
                wildcard(),
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
                vec![
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Le, 5i64)],
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 3i64)],
                ],
            ),
        ),
        (
            GedSet::new(),
            Ged::new(
                "narrow",
                wildcard(),
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
                vec![
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Le, 3i64)],
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 5i64)],
                ],
            ),
        ),
        (
            GedSet::from_vec(vec![Ged::conjunctive(
                "email-key",
                two_persons(),
                vec![GedLiteral::eq_attr(x, email, y, email)],
                vec![GedLiteral::id(x, y)],
            )]),
            Ged::conjunctive(
                "sym",
                two_persons(),
                vec![GedLiteral::eq_attr(y, email, x, email)],
                vec![GedLiteral::id(y, x)],
            ),
        ),
    ];
    for (i, (sigma, phi)) in cases.iter().enumerate() {
        let expected = imp_verdict(&ged_implies(sigma, phi));
        for p in worker_counts() {
            let run = ged_implies_with_config(sigma, phi, &sched_config(p));
            assert_eq!(
                imp_verdict(&run.outcome),
                expected,
                "imp diverged: case {i} p={p}"
            );
        }
    }
    // The generated probe sweep, scheduled.
    for seed in [3u64, 11] {
        let w = gfd::gen::synthetic_workload(10, 3, 2, seed);
        let sigma_ged = lift(&w.sigma);
        for probe in &w.probes {
            let phi = lift_rule(&probe.phi);
            for p in worker_counts() {
                let run = ged_implies_with_config(&sigma_ged, &phi, &sched_config(p));
                assert_eq!(
                    imp_verdict(&run.outcome),
                    probe.expect_implied,
                    "probe {} seed {seed} p={p}",
                    probe.phi.name
                );
            }
        }
    }
}

/// A branch budget that falls short of the (unsatisfiable) choice tree
/// must report "unknown" — never a wrong answer, never a panic — at
/// every worker count. The tree needs 3 visits; the budget allows 2.
#[test]
fn budget_capped_runs_agree_on_unknown() {
    let mut vocab = Vocab::new();
    let a = vocab.attr("A");
    let x = gfd::graph::VarId::new(0);
    let mk_dis = |name: &str, lo: i64| {
        let mut p = Pattern::new();
        p.add_node(gfd::graph::LabelId::WILDCARD, "x");
        Ged::new(
            name,
            p,
            vec![],
            vec![
                vec![GedLiteral::eq_const(x, a, lo)],
                vec![GedLiteral::eq_const(x, a, lo + 1)],
            ],
        )
    };
    let sigma = GedSet::from_vec(vec![mk_dis("d0", 0), mk_dis("d1", 2)]);
    // Sanity: with the full budget the set is unsatisfiable everywhere.
    assert!(!sat_verdict(&ged_sat(&sigma)));
    for p in worker_counts() {
        let cfg = sched_config(p);
        let capped = cfg.clone().with_max_branches(2);
        let run = ged_sat_with_config(&sigma, &capped);
        assert!(
            matches!(run.outcome, GedSatOutcome::Unknown(Interrupt::Branches)),
            "p={p}: capped run should be unknown, got {:?}",
            run.outcome
        );
        let full = ged_sat_with_config(&sigma, &cfg);
        assert!(!sat_verdict(&full.outcome));
    }
}

#[test]
fn ged_witness_satisfies_lifted_sigma() {
    // When the GED search extracts a witness for a satisfiable lifted
    // set, the witness must satisfy every (GED) rule.
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "gfd r1 { pattern { node x: t node y: t edge x -e-> y } then { x.A = 1, y.B = x.A } }
         gfd r2 { pattern { node x: t } then { x.C = 2 } }",
        &mut vocab,
    )
    .unwrap()
    .deps;
    let lifted = lift(&sigma);
    let out = ged_sat(&lifted);
    assert!(out.is_satisfiable());
    let w = out.witness().expect("integer-valued: witness extracts");
    for (_, ged) in lifted.iter() {
        assert!(
            gfd::ged::ged_graph_satisfies(w, ged),
            "witness violates {}",
            ged.name
        );
    }
}

/// A tiny deterministic generator (xorshift64), so a failing seed of the
/// feature oracle below reproduces exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// One GED literal over `vars`: an id literal (two-variable patterns
/// only), an attribute-attribute or an attribute-constant comparison.
fn gen_literal(rng: &mut Rng, vars: &[&str]) -> String {
    const OPS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];
    let x = rng.pick(vars);
    let a = rng.pick(&["A", "B"]);
    match rng.below(6) {
        0 if vars.len() == 2 => "x.id = y.id".to_string(),
        1 => {
            let (y, b) = (rng.pick(vars), rng.pick(&["A", "B"]));
            format!("{x}.{a} {} {y}.{b}", rng.pick(OPS))
        }
        _ => format!("{x}.{a} {} {}", rng.pick(OPS), rng.below(4)),
    }
}

/// A `ged` document of two to four rules mixing order operators,
/// disjunction, id literals and denials.
fn gen_ged_document(rng: &mut Rng) -> String {
    let mut src = String::new();
    for i in 0..2 + rng.below(3) {
        let two = rng.below(2) == 0;
        let vars: &[&str] = if two { &["x", "y"] } else { &["x"] };
        let mut pattern = format!("node x: {}", rng.pick(&["t", "u", "_"]));
        if two {
            pattern += &format!(" node y: {}", rng.pick(&["t", "_"]));
            if rng.below(2) == 0 {
                pattern += " edge x -e-> y";
            }
        }
        let kind = rng.below(4);
        // A denial always carries a premise: an unguarded one fires on
        // its own pattern and leaves nothing to search.
        let when = if kind == 0 || rng.below(2) == 0 {
            format!(" when {{ {} }}", gen_literal(rng, vars))
        } else {
            String::new()
        };
        let then = match kind {
            0 => "then { false }".to_string(),
            1 => format!(
                "then {{ {} }} or {{ {} }}",
                gen_literal(rng, vars),
                gen_literal(rng, vars)
            ),
            _ => {
                let lits: Vec<String> = (0..1 + rng.below(2))
                    .map(|_| gen_literal(rng, vars))
                    .collect();
                format!("then {{ {} }}", lits.join(", "))
            }
        };
        src += &format!("ged r{i} {{ pattern {{ {pattern} }}{when} {then} }}\n");
    }
    src
}

/// A data graph of artists and albums plus two recursive keys (artists
/// by name, albums by title and shared artist) for entity resolution.
fn gen_resolution_document(rng: &mut Rng) -> String {
    let artists = 2 + rng.below(3);
    let albums = 2 + rng.below(3);
    let mut src = String::from("graph g {\n");
    for i in 0..artists {
        src += &format!(
            "  node a{i}: artist {{ name = {}, born = {} }}\n",
            rng.below(2),
            rng.below(3)
        );
    }
    for i in 0..albums {
        src += &format!("  node b{i}: album {{ title = {} }}\n", rng.below(2));
        src += &format!("  edge b{i} -by-> a{}\n", rng.below(artists));
    }
    src += "}\n";
    let artist_premise = rng.pick(&["x.name = y.name", "x.name = y.name, x.born <= y.born"]);
    src += &format!(
        "ged artist_key {{ pattern {{ node x: artist node y: artist }} \
         when {{ {artist_premise} }} then {{ x.id = y.id }} }}\n\
         ged album_key {{ pattern {{ node x: album node y: album node a: artist \
         edge x -by-> a edge y -by-> a }} when {{ x.title = y.title }} then {{ x.id = y.id }} }}\n"
    );
    src
}

/// The GED feature oracle: order operators, disjunction, id literals and
/// denials, checked against properties that share no code with the
/// constraint store. Every extracted witness satisfies every GED per
/// `ged_graph_satisfies` (direct validation), the scheduled verdict at
/// every worker count with TTL-zero splitting equals the sequential one,
/// every member of Σ is implied by Σ, and entity resolution run on its
/// own result merges nothing.
#[test]
fn ged_feature_oracle() {
    let (mut witnesses, mut implications, mut merged) = (0usize, 0usize, 0usize);
    for seed in 0..400u64 {
        let mut rng = Rng::new(seed);
        let src = gen_ged_document(&mut rng);
        let mut vocab = Vocab::new();
        let doc = gfd::dsl::parse_document(&src, &mut vocab).unwrap();
        let sigma = doc.all_as_geds().expect("no ggd blocks");
        let seq = ged_sat(&sigma);
        let expected = sat_verdict(&seq);
        if let Some(w) = seq.witness() {
            witnesses += 1;
            for (_, ged) in sigma.iter() {
                assert!(
                    gfd::ged::ged_graph_satisfies(w, ged),
                    "seed {seed}: witness violates {}:\n{src}",
                    ged.name
                );
            }
        }
        for p in worker_counts() {
            let out = ged_sat_with_config(&sigma, &sched_config(p)).outcome;
            assert_eq!(sat_verdict(&out), expected, "seed {seed} p={p}:\n{src}");
        }
        for (_, phi) in sigma.iter() {
            assert!(
                imp_verdict(&ged_implies(&sigma, phi)),
                "seed {seed}: Σ does not imply its member {}:\n{src}",
                phi.name
            );
            implications += 1;
        }

        let src = gen_resolution_document(&mut rng);
        let doc = gfd::dsl::parse_document(&src, &mut vocab).unwrap();
        let keys: Vec<gfd::ged::Key> = doc
            .geds
            .iter()
            .map(|(_, g)| gfd::ged::Key::new(g.clone()).expect("an id consequence"))
            .collect();
        let first = gfd::ged::resolve_entities(&doc.graphs[0].1, &keys);
        merged += usize::from(first.merges > 0);
        let again = gfd::ged::resolve_entities(&first.resolved, &keys);
        assert_eq!(
            again.merges, 0,
            "seed {seed}: resolution not a fixpoint:\n{src}"
        );
    }
    assert!(witnesses >= 200, "only {witnesses} witnesses extracted");
    assert!(
        implications >= 1000,
        "only {implications} member implications"
    );
    assert!(merged >= 200, "only {merged} resolutions merged anything");
}
