//! Knowledge-base cleaning: the paper's motivating DBpedia scenario
//! (Example 1, rules ϕ1–ϕ3).
//!
//! 1. Validate the rule set itself with the satisfiability analysis
//!    ("check whether Σ is dirty before using it to detect errors").
//! 2. Detect the paper's actual DBpedia inconsistencies in a small
//!    knowledge graph: the Bamburi-airport cycle, the two-top-speed tank,
//!    and the Botswana nationality mismatch.
//!
//! Run with: `cargo run --release --example knowledge_cleaning`

use gfd::prelude::*;

const RULES: &str = r#"
# phi1: a place located in another place cannot contain it (cyclic pattern).
gfd phi1 {
  pattern {
    node x: place
    node y: place
    edge x -locateIn-> y
    edge y -partOf-> x
  }
  then { false }
}

# phi2: topSpeed is a functional property — one object, one top speed.
gfd phi2 {
  pattern {
    node x: _
    node y: speed
    node z: speed
    edge x -topSpeed-> y
    edge x -topSpeed-> z
  }
  then { y.val = z.val }
}

# phi3: the president and vice-president of one country share a
# nationality.
gfd phi3 {
  pattern {
    node x: person
    node y: person
    node z: country
    edge x -president-> z
    edge y -vicePresident-> z
  }
  when { x.c = y.c }
  then { x.nationality = y.nationality }
}
"#;

const DIRTY_KB: &str = r#"
graph dbpedia {
  # The Bamburi cycle (caught by phi1).
  node bamburi_airport: place { name = "Bamburi airport" }
  node bamburi: place { name = "Bamburi" }
  edge bamburi_airport -locateIn-> bamburi
  edge bamburi -partOf-> bamburi_airport

  # The tank with two top speeds (caught by phi2).
  node tank: vehicle { name = "tank" }
  node s1: speed { val = "24.076" }
  node s2: speed { val = "33.336" }
  edge tank -topSpeed-> s1
  edge tank -topSpeed-> s2

  # Botswana's president and vice-president (caught by phi3).
  node pres: person { c = "Botswana", nationality = "Botswana" }
  node vice: person { c = "Botswana", nationality = "Tswana" }
  node botswana: country { name = "Botswana" }
  edge pres -president-> botswana
  edge vice -vicePresident-> botswana

  # Clean facts that must NOT be flagged.
  node nairobi: place { name = "Nairobi" }
  node kenya: place { name = "Kenya" }
  edge nairobi -locateIn-> kenya
  node car: vehicle { name = "car" }
  node s3: speed { val = "200" }
  edge car -topSpeed-> s3
}
"#;

fn main() {
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(RULES, &mut vocab)
        .expect("rules parse")
        .deps;

    // Step 1: validate the rules before trusting them.
    //
    // The paper's model definition (§IV) demands that a model *hosts a
    // match of every pattern*. An unconditional denial like phi1 can then
    // never be part of a satisfiable set: any model must contain the
    // forbidden cycle and immediately violates it. The satisfiability
    // analysis flags exactly that:
    let sat_all = gfd::seq_sat(&sigma);
    println!(
        "rule validation: Σ = {{phi1, phi2, phi3}} is {} (phi1 denies its own scope pattern — \
         the model condition (b) of §IV cannot hold)",
        if sat_all.is_satisfiable() {
            "consistent"
        } else {
            "NOT satisfiable"
        }
    );
    assert!(!sat_all.is_satisfiable());

    // The conditional rules phi2 and phi3 are jointly consistent:
    let conditional: DepSet = sigma
        .iter()
        .filter(|(_, g)| !g.is_denial())
        .map(|(_, g)| g.clone())
        .collect();
    let sat = gfd::seq_sat(&conditional);
    println!(
        "rule validation: {{phi2, phi3}} is {} — safe to use for detection",
        if sat.is_satisfiable() {
            "consistent"
        } else {
            "inconsistent"
        }
    );
    assert!(sat.is_satisfiable());

    // Redundancy check via implication: phi2 restricted to vehicles is
    // subsumed by phi2 and need not be added.
    let phi2_vehicles = gfd::dsl::parse_dependency(
        r#"
        gfd phi2_vehicles {
          pattern {
            node x: vehicle
            node y: speed
            node z: speed
            edge x -topSpeed-> y
            edge x -topSpeed-> z
          }
          then { y.val = z.val }
        }
        "#,
        &mut vocab,
    )
    .unwrap();
    // Note: the wildcard in phi2 matches `vehicle`, so phi2 |= the
    // restricted rule.
    let redundant = gfd::seq_imp(&sigma, &phi2_vehicles).is_implied();
    println!("optimization: phi2_vehicles is redundant (implied by Σ): {redundant}");
    assert!(redundant);

    // Step 2: detect inconsistencies in the knowledge graph.
    let doc = gfd::dsl::parse_document(DIRTY_KB, &mut vocab).expect("kb parses");
    let kb = &doc.graphs[0].1;
    println!(
        "\nknowledge graph: {} entities, {} links",
        kb.node_count(),
        kb.edge_count()
    );

    let violations = gfd::find_violations(kb, &sigma, 100);
    println!("found {} violation(s):", violations.len());
    for v in &violations {
        let gfd = &sigma[v.gfd];
        let entities: Vec<String> = gfd
            .pattern
            .vars()
            .map(|var| {
                let node = v.m[var.index()];
                let name = vocab
                    .find_attr("name")
                    .and_then(|a| kb.attr(node, a))
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| format!("{node}"));
                format!("{} = {}", gfd.pattern.var_name(var), name)
            })
            .collect();
        println!("  {} violated by [{}]", gfd.name, entities.join(", "));
    }
    // One per planted error family (phi2 finds the symmetric match twice).
    assert!(violations.len() >= 3);

    // The clean facts are untouched: removing the three dirty families
    // leaves a graph that satisfies Σ.
    let clean = gfd::dsl::parse_document(
        r#"
        graph clean {
          node nairobi: place { name = "Nairobi" }
          node kenya: place { name = "Kenya" }
          edge nairobi -locateIn-> kenya
          node car: vehicle { name = "car" }
          node s3: speed { val = "200" }
          edge car -topSpeed-> s3
        }
        "#,
        &mut vocab,
    )
    .unwrap();
    let ok = gfd::graph_satisfies_all(&clean.graphs[0].1, &sigma);
    println!("\nclean subgraph satisfies Σ: {ok}");
    assert!(ok);
}
