//! Detect-and-repair: load a SNAP-style edge list, run the parallel
//! violation detector, apply suggested repairs, verify the graph is
//! clean — then keep the result **live under traffic**: apply a delta
//! batch and re-detect incrementally (`gfd-incr`) instead of from
//! scratch. The full error-detection workflow the paper's introduction
//! motivates (ϕ1–ϕ3 on DBpedia), extended to a streaming graph.
//!
//! Run with: `cargo run --release --example detect_and_repair`

use gfd::detect::{detect, suggest_repairs, DetectConfig};
use gfd::incr::{DeltaBatch, IncrConfig, IncrementalDetector};
use gfd::io::{load_edge_list, load_node_table, EdgeListOptions};
use gfd::prelude::*;

fn main() {
    let mut vocab = Vocab::new();

    // ── 1. Load the data the way it actually ships: edge list + node
    //       table (Pokec's distribution format). ─────────────────────────
    let edges = "\
# mini knowledge-base extract
0 1 locateIn      # Bamburi airport  -> Bamburi (city)
1 0 partOf        # Bamburi (city)   -> Bamburi airport  (the error of ϕ1!)
2 3 topSpeed      # tank -> speed record A
2 4 topSpeed      # tank -> speed record B
5 6 president     # Botswana -> president
5 7 vicePresident # Botswana -> vice president
";
    let table = "\
0 place   name=\"Bamburi airport\"
1 place   name=Bamburi
2 vehicle name=tank
3 speed   val=\"24.076\"
4 speed   val=\"33.336\"
5 country name=Botswana
6 person  nationality=Botswana
7 person  nationality=Tswana
";
    let (mut graph, mut ids) =
        load_edge_list(edges, &mut vocab, &EdgeListOptions::default()).expect("edges load");
    load_node_table(table, &mut graph, &mut ids, &mut vocab).expect("table loads");
    println!(
        "loaded {} nodes, {} edges, {} attributes",
        graph.node_count(),
        graph.edge_count(),
        graph.attr_count()
    );

    // ── 2. The paper's Example 1 rules, in the DSL ───────────────────────
    let doc = gfd::dsl::parse_document(
        r#"
        gfd phi1 {                       # a place cannot contain its container
          pattern {
            node x: place
            node y: place
            edge x -locateIn-> y
            edge y -partOf-> x
          }
          then { false }
        }
        gfd phi2 {                       # topSpeed is a functional property
          pattern {
            node x: _
            node y: speed
            node z: speed
            edge x -topSpeed-> y
            edge x -topSpeed-> z
          }
          then { y.val = z.val }
        }
        gfd phi3 {                       # president & vice share nationality
          pattern {
            node c: country
            node p: person
            node v: person
            edge c -president-> p
            edge c -vicePresident-> v
          }
          then { p.nationality = v.nationality }
        }
        "#,
        &mut vocab,
    )
    .expect("rules parse");
    // Every `gfd` block of the file (`ggd` blocks would sit alongside).
    let sigma = doc.deps;

    // ── 3. Parallel detection with per-rule statistics ───────────────────
    let config = DetectConfig::with_workers(4);
    let report = detect(&graph, &sigma, &config);
    println!("\n{}", report.summary(&sigma, &vocab));
    // ϕ1 and ϕ3 catch one violation each; ϕ2 catches the two symmetric
    // (y, z) orderings of the tank's conflicting speed records.
    assert_eq!(report.violations.len(), 4);
    for v in &report.violations {
        print!("{}", v.explain(&graph, &sigma, &vocab));
        for r in suggest_repairs(&graph, &sigma, v, &vocab) {
            println!("  candidate repair: {}", r.description);
        }
    }

    // ── 4. Repair loop: fix one violation, re-detect, repeat ─────────────
    // Repairs must be recomputed against the *current* graph — one fix
    // (e.g. equalizing the two speed values) can resolve several
    // violations at once, or change what the right fix for the next one
    // is. A real cleaning system would rank candidates; we take the
    // first suggestion each round.
    let mut repaired = graph.clone();
    let mut rounds = 0;
    loop {
        let rep = detect(&repaired, &sigma, &config);
        if rep.is_clean() {
            break;
        }
        let v = &rep.violations[0];
        let repairs = suggest_repairs(&repaired, &sigma, v, &vocab);
        let chosen = repairs.first().expect("every violation has a repair");
        println!("applying: {}", chosen.description);
        gfd::detect::repair::apply_repair(&mut repaired, chosen);
        rounds += 1;
        assert!(rounds <= 10, "repair loop did not converge");
    }

    // ── 5. Verify the repaired graph is clean ────────────────────────────
    let after = detect(&repaired, &sigma, &config);
    println!(
        "\nafter {rounds} repair(s): {} violation(s) — graph {}",
        after.violations.len(),
        if after.is_clean() {
            "is clean"
        } else {
            "still dirty"
        }
    );
    assert!(after.is_clean());

    // ── 6. Live traffic: apply a delta batch, re-detect incrementally ────
    // The knowledge base keeps changing after the cleaning pass. Instead
    // of re-freezing and re-detecting the whole graph per update, an
    // IncrementalDetector keeps the violation set live: each batch only
    // re-reasons the pivots within pattern radius of the touched nodes.
    let mut live =
        IncrementalDetector::new(repaired.clone(), sigma.clone(), IncrConfig::with_workers(4));
    assert!(live.is_clean());

    // A new speed record arrives for the tank — and disagrees with the
    // existing one (ϕ2 again), plus a place-containment cycle (ϕ1).
    let mut batch = DeltaBatch::new();
    batch.add_node(vocab.label("speed")); // n8
    batch.set_attr(
        gfd::graph::NodeId::new(8),
        vocab.attr("val"),
        Value::str("99.9"),
    );
    batch.add_edge(
        gfd::graph::NodeId::new(2),
        vocab.label("topSpeed"),
        gfd::graph::NodeId::new(8),
    );
    let report = live.apply(&batch);
    println!(
        "\ndelta batch: {} op(s) → {} dirty node(s), {} of {} pivot(s) re-run, \
         {} violation(s) now live",
        batch.len(),
        report.dirty_nodes,
        report.rerun_pivots,
        live.graph().node_count(),
        report.violations_total,
    );
    // The conflicting record violates ϕ2 against each older speed value,
    // in both (y, z) orders: 4 new violations.
    assert_eq!(report.violations_total, 4);

    // The incremental result is exactly what a from-scratch detect sees.
    let from_scratch = detect(live.graph(), &sigma, &config);
    assert_eq!(from_scratch.violations.len(), live.violations().len());

    // Deleting the bogus record restores cleanliness — again touching
    // only the dirty region.
    let mut fix = DeltaBatch::new();
    fix.del_edge(
        gfd::graph::NodeId::new(2),
        vocab.label("topSpeed"),
        gfd::graph::NodeId::new(8),
    );
    let report = live.apply(&fix);
    println!(
        "after deleting the bogus edge: {} violation(s) — stream {}",
        report.violations_total,
        if live.is_clean() {
            "is clean"
        } else {
            "still dirty"
        }
    );
    assert!(live.is_clean());
}
