//! Direct GED validation `G |= ψ` on data graphs.

use crate::ged::{Ged, GedLiteral};
use gfd_graph::{Graph, LabelIndex, NodeId};
use gfd_match::for_each_match;
use std::ops::ControlFlow;

/// Does match `m` satisfy a single GED literal on concrete data?
///
/// Missing attributes follow the paper's semantics: a literal mentioning a
/// missing attribute is *not satisfied* (so in a premise it makes the GED
/// vacuous; in a consequence it is a violation).
pub fn ged_literal_holds(graph: &Graph, lit: &GedLiteral, m: &[NodeId]) -> bool {
    match lit {
        GedLiteral::AttrConst {
            var,
            attr,
            op,
            value,
        } => graph
            .attr(m[var.index()], *attr)
            .is_some_and(|v| op.eval_id(v, *value)),
        GedLiteral::AttrAttr {
            var,
            attr,
            op,
            other_var,
            other_attr,
        } => {
            let left = graph.attr(m[var.index()], *attr);
            let right = graph.attr(m[other_var.index()], *other_attr);
            matches!((left, right), (Some(a), Some(b)) if op.eval_id(a, b))
        }
        GedLiteral::Id { left, right } => m[left.index()] == m[right.index()],
    }
}

/// Does `m` satisfy the premise of `ged`?
pub fn ged_premise_holds(graph: &Graph, ged: &Ged, m: &[NodeId]) -> bool {
    ged.premise.iter().all(|l| ged_literal_holds(graph, l, m))
}

/// Does `m` satisfy the (disjunctive) consequence of `ged`?
pub fn ged_consequence_holds(graph: &Graph, ged: &Ged, m: &[NodeId]) -> bool {
    ged.disjuncts
        .iter()
        .any(|dis| dis.iter().all(|l| ged_literal_holds(graph, l, m)))
}

/// `G |= ψ`: every match satisfying the premise satisfies some disjunct.
pub fn ged_graph_satisfies(graph: &Graph, ged: &Ged) -> bool {
    let index = LabelIndex::build(graph);
    ged_graph_satisfies_indexed(graph, &index, ged)
}

/// [`ged_graph_satisfies`] with a prebuilt index.
pub fn ged_graph_satisfies_indexed(graph: &Graph, index: &LabelIndex, ged: &Ged) -> bool {
    let mut ok = true;
    for_each_match(graph, index, &ged.pattern, |m| {
        if ged_premise_holds(graph, ged, m) && !ged_consequence_holds(graph, ged, m) {
            ok = false;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::{CmpOp, GedLiteral};
    use gfd_graph::{Pattern, Value, Vocab};

    /// Two `person` nodes connected by `knows`, with ages 15 and 30.
    fn two_people() -> (Graph, Vocab) {
        let mut vocab = Vocab::new();
        let person = vocab.label("person");
        let knows = vocab.label("knows");
        let age = vocab.attr("age");
        let mut g = Graph::new();
        let a = g.add_node(person);
        let b = g.add_node(person);
        g.add_edge(a, knows, b);
        g.set_attr(a, age, Value::int(15));
        g.set_attr(b, age, Value::int(30));
        (g, vocab)
    }

    fn knows_pattern(vocab: &mut Vocab) -> Pattern {
        let person = vocab.label("person");
        let knows = vocab.label("knows");
        let mut p = Pattern::new();
        let x = p.add_node(person, "x");
        let y = p.add_node(person, "y");
        p.add_edge(x, knows, y);
        p
    }

    #[test]
    fn order_predicate_detects_minor() {
        let (g, mut vocab) = two_people();
        let p = knows_pattern(&mut vocab);
        let age = vocab.attr("age");
        let x = p.var_by_name("x").unwrap();
        // Everyone in a knows-relation must be an adult.
        let ged = Ged::conjunctive(
            "adults-only",
            p,
            vec![],
            vec![GedLiteral::cmp_const(x, age, CmpOp::Ge, 18i64)],
        );
        assert!(!ged_graph_satisfies(&g, &ged));
    }

    #[test]
    fn disjunction_allows_either_branch() {
        let (g, mut vocab) = two_people();
        let p = knows_pattern(&mut vocab);
        let age = vocab.attr("age");
        let x = p.var_by_name("x").unwrap();
        // Age must be < 18 or ≥ 18: trivially satisfied by any aged node.
        let ged = Ged::new(
            "total",
            p,
            vec![],
            vec![
                vec![GedLiteral::cmp_const(x, age, CmpOp::Lt, 18i64)],
                vec![GedLiteral::cmp_const(x, age, CmpOp::Ge, 18i64)],
            ],
        );
        assert!(ged_graph_satisfies(&g, &ged));
    }

    #[test]
    fn disjunction_fails_when_no_branch_holds() {
        let (g, mut vocab) = two_people();
        let p = knows_pattern(&mut vocab);
        let age = vocab.attr("age");
        let x = p.var_by_name("x").unwrap();
        let ged = Ged::new(
            "narrow",
            p,
            vec![],
            vec![
                vec![GedLiteral::eq_const(x, age, 40i64)],
                vec![GedLiteral::eq_const(x, age, 50i64)],
            ],
        );
        assert!(!ged_graph_satisfies(&g, &ged));
    }

    #[test]
    fn id_literal_on_data_compares_node_identity() {
        let (mut g, mut vocab) = two_people();
        let knows = vocab.label("knows");
        let p = knows_pattern(&mut vocab);
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        // "knows is irreflexive": a self-loop violates x.id != y.id...
        // expressed as denial with premise x.id = y.id.
        let ged = Ged::denial("no-self-knows", p, vec![GedLiteral::id(x, y)]);
        assert!(ged_graph_satisfies(&g, &ged));
        g.add_edge(NodeId::new(0), knows, NodeId::new(0));
        assert!(!ged_graph_satisfies(&g, &ged));
    }

    #[test]
    fn missing_attribute_in_premise_is_vacuous() {
        let (g, mut vocab) = two_people();
        let p = knows_pattern(&mut vocab);
        let missing = vocab.attr("salary");
        let x = p.var_by_name("x").unwrap();
        let ged = Ged::conjunctive(
            "vacuous",
            p,
            vec![GedLiteral::cmp_const(x, missing, CmpOp::Gt, 0i64)],
            vec![GedLiteral::eq_const(x, missing, 1i64)],
        );
        assert!(ged_graph_satisfies(&g, &ged));
    }

    #[test]
    fn missing_attribute_in_consequence_violates() {
        let (g, mut vocab) = two_people();
        let p = knows_pattern(&mut vocab);
        let missing = vocab.attr("salary");
        let x = p.var_by_name("x").unwrap();
        let ged = Ged::conjunctive(
            "must-have-salary",
            p,
            vec![],
            vec![GedLiteral::cmp_const(x, missing, CmpOp::Ge, 0i64)],
        );
        assert!(!ged_graph_satisfies(&g, &ged));
    }

    #[test]
    fn ne_predicate_works_between_attrs() {
        let (g, mut vocab) = two_people();
        let p = knows_pattern(&mut vocab);
        let age = vocab.attr("age");
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let ged = Ged::conjunctive(
            "distinct-ages",
            p,
            vec![],
            vec![GedLiteral::cmp_attr(x, age, CmpOp::Ne, y, age)],
        );
        assert!(ged_graph_satisfies(&g, &ged));
        // Make ages equal: now violated.
        let mut g2 = g.clone();
        g2.set_attr(NodeId::new(1), age, Value::int(15));
        assert!(!ged_graph_satisfies(&g2, &ged));
    }
}
