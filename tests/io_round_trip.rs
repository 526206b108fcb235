//! Interchange-format round trips across crates: DSL ↔ JSON ↔ core
//! types must preserve reasoning outcomes, and edge-list loading must
//! feed detection correctly.

use gfd::io::{
    graph_from_json, graph_to_json, load_edge_list, load_node_table, sigma_from_json,
    sigma_to_json, EdgeListOptions,
};
use gfd::prelude::*;

#[test]
fn generated_sigma_survives_json_round_trip() {
    for seed in [2u64, 9, 17] {
        let w = gfd::gen::synthetic_workload(15, 4, 3, seed);
        let json = sigma_to_json(&w.sigma, &w.vocab).unwrap();
        let mut vocab2 = Vocab::new();
        let sigma2 = sigma_from_json(&json, &mut vocab2).unwrap();
        assert_eq!(sigma2.len(), w.sigma.len());
        // Reasoning is preserved.
        assert_eq!(
            gfd::seq_sat(&w.sigma).is_satisfiable(),
            gfd::seq_sat(&sigma2).is_satisfiable(),
            "sat diverged after JSON round trip (seed {seed})"
        );
        // Sizes (the small-model bound input) are preserved.
        assert_eq!(w.sigma.total_size(), sigma2.total_size());
    }
}

#[test]
fn dsl_and_json_express_the_same_rules() {
    let mut vocab = Vocab::new();
    let doc = gfd::dsl::parse_document(
        "gfd a { pattern { node x: _ node y: speed edge x -topSpeed-> y }
                 when { x.kind = 1 } then { y.val = x.best } }",
        &mut vocab,
    )
    .unwrap();
    let json = sigma_to_json(&doc.deps, &vocab).unwrap();
    let mut vocab2 = Vocab::new();
    let from_json = sigma_from_json(&json, &mut vocab2).unwrap();
    let printed_a = gfd::dsl::print_dep_set(&doc.deps, &vocab);
    let printed_b = gfd::dsl::print_dep_set(&from_json, &vocab2);
    assert_eq!(
        printed_a, printed_b,
        "DSL render must match after JSON trip"
    );
}

#[test]
fn graph_json_round_trip_preserves_validation() {
    let mut vocab = Vocab::new();
    let doc = gfd::dsl::parse_document(
        r#"
        graph g {
          node a: place { name = "x" }
          node b: place { name = "y" }
          edge a -locateIn-> b
          edge b -partOf-> a
        }
        gfd phi1 {
          pattern { node x: place node y: place
                    edge x -locateIn-> y edge y -partOf-> x }
          then { false }
        }
        "#,
        &mut vocab,
    )
    .unwrap();
    let graph = &doc.graphs[0].1;
    assert!(!gfd::graph_satisfies(
        graph,
        &doc.deps[gfd::graph::GfdId::new(0)]
    ));

    let json = graph_to_json(graph, &vocab);
    let mut vocab2 = Vocab::new();
    let graph2 = graph_from_json(&json, &mut vocab2).unwrap();
    // Re-parse the rule against the new vocabulary so label ids line up.
    let doc2 = gfd::dsl::parse_document(
        "gfd phi1 { pattern { node x: place node y: place
                    edge x -locateIn-> y edge y -partOf-> x } then { false } }",
        &mut vocab2,
    )
    .unwrap();
    assert!(!gfd::graph_satisfies(
        &graph2,
        &doc2.deps[gfd::graph::GfdId::new(0)]
    ));
}

#[test]
fn edge_list_to_detection_pipeline() {
    // A two-hop "friend of friend must be a friend" style shape check:
    // the denial pattern catches a triangle missing its closing edge.
    let mut vocab = Vocab::new();
    let edges = "1 2 follows\n2 3 follows\n1 3 follows\n4 5 follows\n5 6 follows\n";
    let (mut graph, mut ids) =
        load_edge_list(edges, &mut vocab, &EdgeListOptions::default()).unwrap();
    let table = "1 person\n2 person\n3 person\n4 person\n5 person\n6 person\n";
    load_node_table(table, &mut graph, &mut ids, &mut vocab).unwrap();

    let doc = gfd::dsl::parse_document(
        "gfd triangle_complete {
           pattern { node x: person node y: person node z: person
                     edge x -follows-> y
                     edge y -follows-> z }
           when { x.checked = 1 }
           then { x.closes = 1 }
         }",
        &mut vocab,
    )
    .unwrap();
    // Mark node 4 (whose two-hop path 4→5→6 has no closing edge).
    let checked = vocab.attr("checked");
    graph.set_attr(ids[&4], checked, Value::int(1));

    let report = gfd::detect::detect(
        &graph,
        &doc.deps,
        &gfd::detect::DetectConfig::with_workers(2),
    );
    // The premise only holds where `checked` is set: the 4→5→6 match.
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].m[0], ids[&4]);
}

#[test]
fn json_errors_surface_cleanly_across_the_facade() {
    let mut vocab = Vocab::new();
    assert!(graph_from_json("[1,2,3]", &mut vocab).is_err());
    assert!(sigma_from_json("{}", &mut vocab).is_err());
    // Empty rule list is fine.
    assert_eq!(
        sigma_from_json("{\"gfds\": []}", &mut vocab).unwrap().len(),
        0
    );
}

/// A rule name may hold any character, and both trace exporters — the
/// Chrome trace and the `--metrics-json` run report — must write it as a
/// JSON string that parses and gives the name back exactly.
#[test]
fn trace_exports_escape_rule_names() {
    use gfd::io::jsonval::{self, Json};
    use gfd::io::report;
    let names = ["q\"uote", "back\\slash", "new\nline"];
    let mut vocab = Vocab::new();
    let (t, a) = (vocab.label("t"), vocab.attr("a"));
    let rules = names.iter().map(|name| {
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        Dependency::new(*name, p, vec![], vec![Literal::eq_const(x, a, 1i64)])
    });
    let json = sigma_to_json(&DepSet::from_vec(rules.collect()), &vocab).unwrap();
    let sigma = sigma_from_json(&json, &mut Vocab::new()).unwrap();
    let names: Vec<String> = sigma.iter().map(|(_, d)| d.name.clone()).collect();
    assert_eq!(names, ["q\"uote", "back\\slash", "new\nline"]);

    let cfg = ReasonConfig::with_workers(1).with_trace(gfd::runtime::TraceSpec::enabled());
    let metrics = sat_with_config(&sigma, &cfg).stats;

    let chrome =
        jsonval::parse(&report::chrome_trace(&metrics.trace, &names)).expect("Chrome trace");
    let events = chrome.get("traceEvents").and_then(Json::as_array).unwrap();
    let mut seen: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name")?.as_str()?.strip_prefix("RuleEval:"))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let mut want: Vec<&str> = names.iter().map(String::as_str).collect();
    want.sort_unstable();
    assert_eq!(seen, want);

    let report = jsonval::parse(&report::run_report(&metrics, &names)).expect("run report");
    let profile = report.get("profile").and_then(|p| p.get("rules"));
    let rows = profile.and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), names.len());
    for row in rows {
        let id = row.get("id").and_then(Json::as_int).unwrap() as usize;
        assert_eq!(row.get("rule").and_then(Json::as_str), Some(&*names[id]));
    }
}
