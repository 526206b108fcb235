//! Reasoning with GEDs: built-in order predicates and disjunction (the
//! §IX extension), on a compliance-rules scenario.
//!
//! A retail platform encodes pricing policy as GEDs:
//!   r1: every listed product has 0 < price
//!   r2: discounted products: price < 50 ∨ clearance = true
//!   r3: clearance products have price < 20
//!
//! We ask the reasoner two kinds of questions:
//!   * satisfiability — is the policy self-consistent? (can all rules
//!     hold on one catalogue?)
//!   * implication — does the policy already entail a proposed new rule,
//!     making it redundant?
//!
//! Run with: `cargo run --release --example ged_reasoning`

use gfd::ged::{
    ged_implies, ged_sat, CmpOp, Ged, GedImpOutcome, GedLiteral, GedSatOutcome, GedSet,
};
use gfd::prelude::*;

fn product_pattern(vocab: &mut Vocab) -> Pattern {
    let product = vocab.label("product");
    let mut p = Pattern::new();
    p.add_node(product, "p");
    p
}

fn main() {
    let mut vocab = Vocab::new();
    let price = vocab.attr("price");
    let discounted = vocab.attr("discounted");
    let clearance = vocab.attr("clearance");
    let p = gfd::graph::VarId::new(0);

    // ── 1. The policy ────────────────────────────────────────────────────
    let r1 = Ged::conjunctive(
        "positive-price",
        product_pattern(&mut vocab),
        vec![],
        vec![GedLiteral::cmp_const(p, price, CmpOp::Gt, 0i64)],
    );
    let r2 = Ged::new(
        "discount-policy",
        product_pattern(&mut vocab),
        vec![GedLiteral::eq_const(p, discounted, true)],
        vec![
            vec![GedLiteral::cmp_const(p, price, CmpOp::Lt, 50i64)],
            vec![GedLiteral::eq_const(p, clearance, true)],
        ],
    );
    let r3 = Ged::conjunctive(
        "clearance-price",
        product_pattern(&mut vocab),
        vec![GedLiteral::eq_const(p, clearance, true)],
        vec![GedLiteral::cmp_const(p, price, CmpOp::Lt, 20i64)],
    );
    let sigma = GedSet::from_vec(vec![r1, r2, r3]);
    println!("policy:");
    for (_, ged) in sigma.iter() {
        println!("  {}", ged.display(&vocab));
    }

    // ── 2. Satisfiability: the policy is consistent ──────────────────────
    let out = ged_sat(&sigma);
    println!("\npolicy satisfiable: {}", out.is_satisfiable());
    assert!(out.is_satisfiable());
    if let Some(w) = out.witness() {
        println!(
            "witness catalogue: {} node(s), {} attribute(s)",
            w.node_count(),
            w.attr_count()
        );
    }

    // ── 3. An inconsistent amendment is caught ───────────────────────────
    // "every discounted product costs at least 60" contradicts r2+r3:
    // price ≥ 60 kills the <50 branch, forcing clearance, forcing <20.
    let bad = Ged::conjunctive(
        "minimum-discount-price",
        product_pattern(&mut vocab),
        vec![GedLiteral::eq_const(p, discounted, true)],
        vec![GedLiteral::cmp_const(p, price, CmpOp::Ge, 60i64)],
    );
    let mut amended = sigma.clone();
    // The amendment alone is fine; the *interaction* is the problem —
    // but only when a discounted product can exist. Add the business
    // assumption that discounted products exist:
    let seed = Ged::conjunctive(
        "discounts-exist",
        product_pattern(&mut vocab),
        vec![],
        vec![GedLiteral::eq_const(p, discounted, true)],
    );
    amended.push(bad);
    amended.push(seed);
    let out = ged_sat(&amended);
    println!(
        "policy + minimum-discount-price + discounts-exist satisfiable: {}",
        out.is_satisfiable()
    );
    assert!(matches!(out, GedSatOutcome::Unsatisfiable), "{out:?}");

    // ── 4. Implication: redundant proposals are detected ─────────────────
    // "discounted clearance products cost less than 30" — already implied
    // (clearance forces price < 20 < 30).
    let proposal = Ged::conjunctive(
        "clearance-discount-under-30",
        product_pattern(&mut vocab),
        vec![
            GedLiteral::eq_const(p, discounted, true),
            GedLiteral::eq_const(p, clearance, true),
        ],
        vec![GedLiteral::cmp_const(p, price, CmpOp::Lt, 30i64)],
    );
    let implied = ged_implies(&sigma, &proposal).is_implied();
    println!("\nΣ |= {} ? {}", proposal.name, implied);
    assert!(implied, "redundant: clearance already caps price at 20");

    // A genuinely new rule is not implied.
    let novel = Ged::conjunctive(
        "discount-under-40",
        product_pattern(&mut vocab),
        vec![GedLiteral::eq_const(p, discounted, true)],
        vec![GedLiteral::cmp_const(p, price, CmpOp::Lt, 40i64)],
    );
    let out = ged_implies(&sigma, &novel);
    println!("Σ |= {} ? {}", novel.name, out.is_implied());
    assert_eq!(
        out,
        GedImpOutcome::NotImplied,
        "a discounted product may cost 45"
    );

    // A tautology is implied by anything (needs Y-literal branching).
    let taut = Ged::new(
        "price-totality",
        product_pattern(&mut vocab),
        vec![GedLiteral::cmp_const(p, price, CmpOp::Gt, 0i64)],
        vec![
            vec![GedLiteral::cmp_const(p, price, CmpOp::Lt, 100i64)],
            vec![GedLiteral::cmp_const(p, price, CmpOp::Ge, 100i64)],
        ],
    );
    let implied = ged_implies(&GedSet::new(), &taut).is_implied();
    println!("∅ |= {} ? {}", taut.name, implied);
    assert!(implied);
}
