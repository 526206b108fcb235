//! Rule-set minimization via the implication analysis.
//!
//! The paper's motivation for implication checking: "eliminate redundant
//! GFDs that are entailed by others — an optimization strategy to speed
//! up error detection". This example computes a non-redundant cover of a
//! rule set and shows the saved validation work on a data graph.
//!
//! Run with: `cargo run --release --example rule_minimization`

use gfd::gen::{plant_violation, random_graph, Dataset, GraphGenConfig, Schema};
use gfd::prelude::*;
use std::time::Instant;

fn main() {
    let mut vocab = Vocab::new();

    // A hand-written rule set with planted redundancy.
    let doc = gfd::dsl::parse_document(
        r#"
        # Base rule: any entity with a profile shares its trust level.
        gfd base {
          pattern {
            node x: _
            node p: profile
            edge x -hasProfile-> p
          }
          then { x.trust = p.trust }
        }

        # Redundant: the same rule restricted to persons (wildcard covers it).
        gfd base_person {
          pattern {
            node x: person
            node p: profile
            edge x -hasProfile-> p
          }
          then { x.trust = p.trust }
        }

        # Redundant: adds an extra premise to the base rule.
        gfd base_weaker {
          pattern {
            node x: _
            node p: profile
            edge x -hasProfile-> p
          }
          when { x.verified = true }
          then { x.trust = p.trust }
        }

        # Independent rule 1: verified profiles have high trust.
        gfd verified_high {
          pattern { node p: profile }
          when { p.verified = true }
          then { p.trust = "high" }
        }

        # Redundant combination: verified profiles of verified users give
        # the user high trust (follows from base + verified_high).
        gfd combo {
          pattern {
            node x: _
            node p: profile
            edge x -hasProfile-> p
          }
          when { p.verified = true }
          then { x.trust = "high" }
        }

        # Non-obvious redundancy: two profiles of one entity agree on
        # trust. Implied by `base` alone, via transitivity through x:
        # x.trust = p.trust and x.trust = q.trust force p.trust = q.trust.
        gfd unique_trust {
          pattern {
            node x: _
            node p: profile
            node q: profile
            edge x -hasProfile-> p
            edge x -hasProfile-> q
          }
          then { p.trust = q.trust }
        }
        "#,
        &mut vocab,
    )
    .expect("rules parse");
    let sigma = doc.deps;
    println!("input: {} rules", sigma.len());

    // Greedy cover: drop every rule implied by the remaining ones.
    let t0 = Instant::now();
    let mut keep: Vec<bool> = vec![true; sigma.len()];
    for i in 0..sigma.len() {
        let candidate = &sigma.as_slice()[i];
        let rest: DepSet = sigma
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i && keep[*j])
            .map(|(_, (_, g))| g.clone())
            .collect();
        let implied = gfd::seq_imp(&rest, candidate).is_implied();
        if implied {
            keep[i] = false;
            println!("  - dropping `{}` (implied by the rest)", candidate.name);
        }
    }
    let cover: DepSet = sigma
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|((_, g), _)| g.clone())
        .collect();
    println!(
        "cover: {} rules (computed in {:?})",
        cover.len(),
        t0.elapsed()
    );
    assert!(cover.len() < sigma.len(), "expected redundancy to be found");

    // The cover is equivalent: both directions of implication hold.
    for (_, g) in sigma.iter() {
        assert!(
            gfd::seq_imp(&cover, g).is_implied(),
            "cover must imply `{}`",
            g.name
        );
    }
    println!("equivalence verified: cover |= Σ and Σ |= cover");

    // Error detection with the cover finds the same violations faster
    // (fewer patterns to match).
    let schema = Schema::new(Dataset::Tiny, &mut vocab);
    let mut graph = random_graph(
        &schema,
        &GraphGenConfig {
            nodes: 400,
            edges: 900,
            attr_prob: 0.3,
            seed: 17,
        },
    );
    for (i, (_, g)) in cover.iter().enumerate() {
        plant_violation(&mut graph, g, &schema, i as u64);
    }

    let t_full = Instant::now();
    let v_full = gfd::find_violations(&graph, &sigma, usize::MAX);
    let t_full = t_full.elapsed();
    let t_cover = Instant::now();
    let v_cover = gfd::find_violations(&graph, &cover, usize::MAX);
    let t_cover = t_cover.elapsed();
    println!(
        "\nerror detection on {} nodes: full set {} violations in {:?}, cover {} violations in {:?}",
        graph.node_count(),
        v_full.len(),
        t_full,
        v_cover.len(),
        t_cover,
    );
    // Every violation of the full set is caught by a cover rule on the
    // same graph (the cover is equivalent, so a clean graph under the
    // cover is clean under Σ).
    assert!(!v_cover.is_empty());
}
