//! The I/O formats across crates: edge-list loading must feed detection
//! correctly, and the trace exports must carry any rule name.

use gfd::io::{load_edge_list, load_node_table, EdgeListOptions};
use gfd::prelude::*;

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
    let sigma = DepSet::from_vec(rules.collect());
    let names: Vec<String> = sigma.iter().map(|(_, d)| d.name.clone()).collect();

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
