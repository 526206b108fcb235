//! JSON interchange for graphs and GFD sets.
//!
//! Names (labels, attributes, variables) travel as strings and are
//! re-interned on load, so files are portable across processes with
//! different vocabularies. The wildcard label is spelled `"_"`, matching
//! the DSL.
//!
//! Serialization is built on the in-crate [`crate::jsonval`] tree rather
//! than serde (DESIGN.md §5: the workspace builds offline); the wire
//! format is unchanged.

use crate::jsonval::{parse, Json, ParseError};
use gfd_core::{DepSet, Dependency, Literal, Operand};
use gfd_graph::{Graph, NodeId, Pattern, Value, ValueId, Vocab};
use std::fmt;

/// An import/export error.
#[derive(Debug)]
pub enum JsonError {
    /// Malformed JSON.
    Syntax(ParseError),
    /// Structurally valid JSON with inconsistent content.
    Semantic(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(e) => write!(f, "json syntax: {e}"),
            JsonError::Semantic(m) => write!(f, "json content: {m}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<ParseError> for JsonError {
    fn from(e: ParseError) -> Self {
        JsonError::Syntax(e)
    }
}

fn semantic(msg: impl Into<String>) -> JsonError {
    JsonError::Semantic(msg.into())
}

fn value_id_to_json(v: ValueId) -> Json {
    value_to_json(&v.resolve())
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::string(&**s),
    }
}

fn value_from_json(j: &Json) -> Result<Value, JsonError> {
    match j {
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::str(s)),
        other => Err(semantic(format!(
            "attribute values must be int, bool or string, got {other:?}"
        ))),
    }
}

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, JsonError> {
    obj.get(key)
        .ok_or_else(|| semantic(format!("{ctx}: missing field `{key}`")))
}

fn str_field(obj: &Json, key: &str, ctx: &str) -> Result<String, JsonError> {
    field(obj, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| semantic(format!("{ctx}: field `{key}` must be a string")))
}

fn index_field(obj: &Json, key: &str, ctx: &str) -> Result<usize, JsonError> {
    let i = field(obj, key, ctx)?
        .as_int()
        .ok_or_else(|| semantic(format!("{ctx}: field `{key}` must be an integer")))?;
    usize::try_from(i).map_err(|_| semantic(format!("{ctx}: field `{key}` must be non-negative")))
}

/// A required array field.
fn array_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], JsonError> {
    field(obj, key, ctx)?
        .as_array()
        .ok_or_else(|| semantic(format!("{ctx}: field `{key}` must be an array")))
}

/// An optional array field; a missing field reads as empty (the writer
/// omits empty collections).
fn opt_array_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], JsonError> {
    match obj.get(key) {
        None => Ok(&[]),
        Some(j) => j
            .as_array()
            .ok_or_else(|| semantic(format!("{ctx}: field `{key}` must be an array"))),
    }
}

/// Serialize a graph to a pretty JSON string.
pub fn graph_to_json(graph: &Graph, vocab: &Vocab) -> String {
    let nodes: Vec<Json> = graph
        .nodes()
        .map(|v| {
            let mut fields = vec![("label", Json::string(vocab.label_name(graph.label(v))))];
            // Name-sorted attributes, as the previous BTreeMap encoding
            // produced; omitted when empty.
            let mut attrs: Vec<(String, Json)> = graph
                .attrs(v)
                .map(|(a, val)| (vocab.attr_name(a).to_string(), value_id_to_json(val)))
                .collect();
            attrs.sort_by(|(a, _), (b, _)| a.cmp(b));
            if !attrs.is_empty() {
                fields.push(("attrs", Json::Object(attrs)));
            }
            Json::object(fields)
        })
        .collect();
    let edges: Vec<Json> = graph
        .edges()
        .map(|(s, l, d)| {
            Json::object([
                ("src", Json::int(s.index())),
                ("label", Json::string(vocab.label_name(l))),
                ("dst", Json::int(d.index())),
            ])
        })
        .collect();
    Json::object([("nodes", Json::Array(nodes)), ("edges", Json::Array(edges))]).pretty()
}

/// Load a graph from JSON, interning names into `vocab`.
pub fn graph_from_json(src: &str, vocab: &mut Vocab) -> Result<Graph, JsonError> {
    let doc = parse(src)?;
    let nodes = array_field(&doc, "nodes", "graph")?;
    let edges = array_field(&doc, "edges", "graph")?;
    let mut g = Graph::with_capacity(nodes.len());
    for n in nodes {
        let label = str_field(n, "label", "node")?;
        let id = g.add_node(vocab.label(&label));
        if let Some(attrs) = n.get("attrs") {
            let Json::Object(fields) = attrs else {
                return Err(semantic("node field `attrs` must be an object"));
            };
            for (attr, value) in fields {
                g.set_attr(id, vocab.attr(attr), value_from_json(value)?);
            }
        }
    }
    for e in edges {
        let src = index_field(e, "src", "edge")?;
        let dst = index_field(e, "dst", "edge")?;
        let label = str_field(e, "label", "edge")?;
        if src >= nodes.len() || dst >= nodes.len() {
            return Err(semantic(format!(
                "edge {src} -> {dst} references a missing node"
            )));
        }
        g.add_edge(NodeId::new(src), vocab.label(&label), NodeId::new(dst));
    }
    Ok(g)
}

fn literal_to_json(lit: &Literal, pattern: &Pattern, vocab: &Vocab) -> Json {
    let mut fields = vec![
        ("var", Json::string(pattern.var_name(lit.var))),
        ("attr", Json::string(vocab.attr_name(lit.attr))),
    ];
    match &lit.rhs {
        Operand::Const(c) => fields.push(("value", value_id_to_json(*c))),
        Operand::Attr(v, a) => {
            fields.push(("rhs_var", Json::string(pattern.var_name(*v))));
            fields.push(("rhs_attr", Json::string(vocab.attr_name(*a))));
        }
    }
    Json::object(fields)
}

fn literal_from_json(
    j: &Json,
    pattern: &Pattern,
    vocab: &mut Vocab,
    rule: &str,
) -> Result<Literal, JsonError> {
    let ctx = format!("rule {rule}");
    let var_name = str_field(j, "var", &ctx)?;
    let var = pattern
        .var_by_name(&var_name)
        .ok_or_else(|| semantic(format!("rule {rule}: unknown variable `{var_name}`")))?;
    let attr = vocab.attr(&str_field(j, "attr", &ctx)?);
    match (j.get("value"), j.get("rhs_var"), j.get("rhs_attr")) {
        (Some(v), None, None) => Ok(Literal::eq_const(var, attr, value_from_json(v)?)),
        (None, Some(v2), Some(a2)) => {
            let v2 = v2
                .as_str()
                .ok_or_else(|| semantic(format!("rule {rule}: `rhs_var` must be a string")))?;
            let a2 = a2
                .as_str()
                .ok_or_else(|| semantic(format!("rule {rule}: `rhs_attr` must be a string")))?
                .to_string();
            let var2 = pattern
                .var_by_name(v2)
                .ok_or_else(|| semantic(format!("rule {rule}: unknown variable `{v2}`")))?;
            Ok(Literal::eq_attr(var, attr, var2, vocab.attr(&a2)))
        }
        _ => Err(semantic(format!(
            "rule {rule}: literal needs either `value` or both `rhs_var` and `rhs_attr`"
        ))),
    }
}

/// Serialize a literal rule set to a pretty JSON string. The wire format
/// has no form for a generating consequence: the first rule with one is a
/// [`JsonError::Semantic`].
pub fn sigma_to_json(sigma: &DepSet, vocab: &Vocab) -> Result<String, JsonError> {
    let gfds = sigma
        .iter()
        .map(|(_, g)| {
            let consequence = g.consequence.literals().ok_or_else(|| {
                semantic(format!(
                    "rule {}: a generating consequence has no JSON form",
                    g.name
                ))
            })?;
            let nodes: Vec<Json> = g
                .pattern
                .vars()
                .map(|v| {
                    Json::object([
                        ("var", Json::string(g.pattern.var_name(v))),
                        ("label", Json::string(vocab.label_name(g.pattern.label(v)))),
                    ])
                })
                .collect();
            let edges: Vec<Json> = g
                .pattern
                .edges()
                .iter()
                .map(|e| {
                    Json::object([
                        ("src", Json::string(g.pattern.var_name(e.src))),
                        ("label", Json::string(vocab.label_name(e.label))),
                        ("dst", Json::string(g.pattern.var_name(e.dst))),
                    ])
                })
                .collect();
            let when: Vec<Json> = g
                .premise
                .iter()
                .map(|l| literal_to_json(l, &g.pattern, vocab))
                .collect();
            let then: Vec<Json> = consequence
                .iter()
                .map(|l| literal_to_json(l, &g.pattern, vocab))
                .collect();
            let mut fields = vec![
                ("name", Json::string(g.name.as_str())),
                ("nodes", Json::Array(nodes)),
            ];
            if !edges.is_empty() {
                fields.push(("edges", Json::Array(edges)));
            }
            if !when.is_empty() {
                fields.push(("when", Json::Array(when)));
            }
            fields.push(("then", Json::Array(then)));
            Ok(Json::object(fields))
        })
        .collect::<Result<Vec<Json>, JsonError>>()?;
    Ok(Json::object([("gfds", Json::Array(gfds))]).pretty())
}

/// Load a rule set from JSON, interning names into `vocab`.
pub fn sigma_from_json(src: &str, vocab: &mut Vocab) -> Result<DepSet, JsonError> {
    let doc = parse(src)?;
    let gfds = array_field(&doc, "gfds", "sigma")?;
    let mut out = DepSet::new();
    for jg in gfds {
        let name = str_field(jg, "name", "rule")?;
        let ctx = format!("rule {name}");
        let nodes = array_field(jg, "nodes", &ctx)?;
        if nodes.is_empty() {
            return Err(semantic(format!("{ctx}: empty pattern")));
        }
        let mut pattern = Pattern::new();
        for n in nodes {
            let var = str_field(n, "var", &ctx)?;
            let label = str_field(n, "label", &ctx)?;
            if pattern.var_by_name(&var).is_some() {
                return Err(semantic(format!("{ctx}: duplicate variable `{var}`")));
            }
            pattern.add_node(vocab.label(&label), var);
        }
        for e in opt_array_field(jg, "edges", &ctx)? {
            let src_name = str_field(e, "src", &ctx)?;
            let dst_name = str_field(e, "dst", &ctx)?;
            let label = str_field(e, "label", &ctx)?;
            let src = pattern
                .var_by_name(&src_name)
                .ok_or_else(|| semantic(format!("{ctx}: unknown variable `{src_name}`")))?;
            let dst = pattern
                .var_by_name(&dst_name)
                .ok_or_else(|| semantic(format!("{ctx}: unknown variable `{dst_name}`")))?;
            pattern.add_edge(src, vocab.label(&label), dst);
        }
        let premise = opt_array_field(jg, "when", &ctx)?
            .iter()
            .map(|l| literal_from_json(l, &pattern, vocab, &name))
            .collect::<Result<Vec<_>, _>>()?;
        let consequence = array_field(jg, "then", &ctx)?
            .iter()
            .map(|l| literal_from_json(l, &pattern, vocab, &name))
            .collect::<Result<Vec<_>, _>>()?;
        out.push(Dependency::new(name, pattern, premise, consequence));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::LabelId;

    fn sample_graph() -> (Graph, Vocab) {
        let mut vocab = Vocab::new();
        let person = vocab.label("person");
        let knows = vocab.label("knows");
        let age = vocab.attr("age");
        let name = vocab.attr("name");
        let mut g = Graph::new();
        let a = g.add_node(person);
        let b = g.add_node(person);
        g.add_edge(a, knows, b);
        g.set_attr(a, age, Value::int(30));
        g.set_attr(a, name, Value::str("ann"));
        g.set_attr(b, age, Value::Bool(true));
        (g, vocab)
    }

    #[test]
    fn graph_round_trips() {
        let (g, vocab) = sample_graph();
        let json = graph_to_json(&g, &vocab);
        let mut vocab2 = Vocab::new();
        let g2 = graph_from_json(&json, &mut vocab2).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.attr_count(), g.attr_count());
        let age2 = vocab2.attr("age");
        assert_eq!(g2.attr(NodeId::new(0), age2), Some(ValueId::of(30i64)));
        assert_eq!(g2.attr(NodeId::new(1), age2), Some(ValueId::of(true)));
    }

    #[test]
    fn wildcard_label_round_trips() {
        let mut vocab = Vocab::new();
        let mut g = Graph::new();
        g.add_node(LabelId::WILDCARD);
        let json = graph_to_json(&g, &vocab);
        assert!(json.contains("\"_\""), "{json}");
        let mut vocab2 = Vocab::new();
        let g2 = graph_from_json(&json, &mut vocab2).unwrap();
        assert!(g2.label(NodeId::new(0)).is_wildcard());
        let _ = &mut vocab;
    }

    #[test]
    fn bad_edge_reference_is_semantic_error() {
        let src = r#"{"nodes": [{"label": "t"}], "edges": [{"src": 0, "label": "e", "dst": 5}]}"#;
        let mut vocab = Vocab::new();
        let err = graph_from_json(src, &mut vocab).unwrap_err();
        assert!(matches!(err, JsonError::Semantic(_)));
    }

    #[test]
    fn malformed_json_is_syntax_error() {
        let mut vocab = Vocab::new();
        let err = graph_from_json("{nodes: oops", &mut vocab).unwrap_err();
        assert!(matches!(err, JsonError::Syntax(_)));
    }

    fn sample_sigma() -> (DepSet, Vocab) {
        let mut vocab = Vocab::new();
        let place = vocab.label("place");
        let locate = vocab.label("locateIn");
        let pop = vocab.attr("pop");
        let mut p = Pattern::new();
        let x = p.add_node(place, "x");
        let y = p.add_node(place, "y");
        p.add_edge(x, locate, y);
        let g1 = Dependency::new(
            "g1",
            p.clone(),
            vec![Literal::eq_const(x, pop, 5i64)],
            vec![Literal::eq_attr(x, pop, y, pop)],
        );
        let g2 = Dependency::new("g2", p, vec![], vec![Literal::eq_const(y, pop, 7i64)]);
        (DepSet::from_vec(vec![g1, g2]), vocab)
    }

    #[test]
    fn sigma_round_trips_and_preserves_reasoning() {
        let (sigma, vocab) = sample_sigma();
        let json = sigma_to_json(&sigma, &vocab).unwrap();
        let mut vocab2 = Vocab::new();
        let sigma2 = sigma_from_json(&json, &mut vocab2).unwrap();
        assert_eq!(sigma2.len(), sigma.len());
        // Structure is preserved literal-for-literal.
        for ((_, a), (_, b)) in sigma.iter().zip(sigma2.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.premise.len(), b.premise.len());
            assert_eq!(a.consequence.size(), b.consequence.size());
            assert_eq!(a.pattern.node_count(), b.pattern.node_count());
            assert_eq!(a.pattern.edge_count(), b.pattern.edge_count());
        }
        // Reasoning outcome is identical.
        assert_eq!(
            gfd_core::seq_sat(&sigma).is_satisfiable(),
            gfd_core::seq_sat(&sigma2).is_satisfiable()
        );
    }

    #[test]
    fn generating_rule_has_no_json_form() {
        let (sigma, mut vocab) = sample_sigma();
        let mut rules = sigma.into_vec();
        let premise = rules[0].pattern.clone();
        let mut gen = gfd_core::GenerateConsequence::over(&premise);
        gen.add_fresh(vocab.label("city"), "c");
        rules.push(Dependency::new("grow", premise, vec![], gen));
        let err = sigma_to_json(&DepSet::from_vec(rules), &vocab).unwrap_err();
        assert!(
            matches!(&err, JsonError::Semantic(m) if m.contains("rule grow")),
            "{err}"
        );
    }

    #[test]
    fn literal_without_rhs_is_rejected() {
        let src = r#"{"gfds": [{
            "name": "bad",
            "nodes": [{"var": "x", "label": "t"}],
            "then": [{"var": "x", "attr": "a"}]
        }]}"#;
        let mut vocab = Vocab::new();
        let err = sigma_from_json(src, &mut vocab).unwrap_err();
        assert!(err.to_string().contains("rhs_var"), "{err}");
    }

    #[test]
    fn unknown_variable_in_literal_is_rejected() {
        let src = r#"{"gfds": [{
            "name": "bad",
            "nodes": [{"var": "x", "label": "t"}],
            "then": [{"var": "zz", "attr": "a", "value": 1}]
        }]}"#;
        let mut vocab = Vocab::new();
        let err = sigma_from_json(src, &mut vocab).unwrap_err();
        assert!(err.to_string().contains("zz"), "{err}");
    }

    #[test]
    fn duplicate_variable_is_rejected() {
        let src = r#"{"gfds": [{
            "name": "bad",
            "nodes": [{"var": "x", "label": "t"}, {"var": "x", "label": "t"}],
            "then": [{"var": "x", "attr": "a", "value": 1}]
        }]}"#;
        let mut vocab = Vocab::new();
        assert!(sigma_from_json(src, &mut vocab).is_err());
    }
}
