//! Direct validation `G |= ϕ` on concrete data graphs.
//!
//! This is the *application* side of GFDs (inconsistency detection): a
//! violation is a match of the pattern whose premise holds on the actual
//! attribute values but whose consequence does not — literals that fail,
//! or a generated target no extension of the match realizes. Also used by
//! tests to verify that models produced by `SeqSat` indeed satisfy Σ.

use crate::dependency::{Consequence, DepSet, Dependency};
use crate::literal::{Literal, Operand};
use gfd_graph::{GfdId, Graph, LabelIndex};
use gfd_match::{for_each_match, Match};
use std::ops::ControlFlow;

/// A witnessed violation of a GFD in a data graph.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which GFD is violated.
    pub gfd: GfdId,
    /// The match whose entities break the dependency.
    pub m: Match,
}

/// Does `m` satisfy a single literal on the concrete attributes of `graph`?
pub fn literal_holds(graph: &Graph, lit: &Literal, m: &[gfd_graph::NodeId]) -> bool {
    let left = graph.attr(m[lit.var.index()], lit.attr);
    match &lit.rhs {
        Operand::Const(c) => left == Some(*c),
        Operand::Attr(v2, a2) => {
            let right = graph.attr(m[v2.index()], *a2);
            matches!((left, right), (Some(a), Some(b)) if a == b)
        }
    }
}

/// Does `m` satisfy the premise `X` of `gfd` on concrete attributes?
pub fn premise_holds(graph: &Graph, gfd: &Dependency, m: &[gfd_graph::NodeId]) -> bool {
    gfd.premise.iter().all(|l| literal_holds(graph, l, m))
}

/// Does `m` satisfy the consequence of `gfd` on the concrete attributes and
/// (for a generating consequence) topology of `graph`, indexed by `index`?
pub fn consequence_holds(
    graph: &Graph,
    index: &LabelIndex,
    gfd: &Dependency,
    m: &[gfd_graph::NodeId],
) -> bool {
    match &gfd.consequence {
        Consequence::Literals(lits) => lits.iter().all(|l| literal_holds(graph, l, m)),
        Consequence::Generate(gen) => {
            let mut attr_ok = |lit: &_, asn: &_| literal_holds(graph, lit, asn);
            gen.realized(index, m, &mut Vec::new(), &mut attr_ok)
        }
    }
}

/// `G |= ϕ`: every match satisfying `X` also satisfies the consequence.
pub fn graph_satisfies(graph: &Graph, gfd: &Dependency) -> bool {
    let index = LabelIndex::build(graph);
    graph_satisfies_indexed(graph, &index, gfd)
}

/// [`graph_satisfies`] with a prebuilt label index.
pub fn graph_satisfies_indexed(graph: &Graph, index: &LabelIndex, gfd: &Dependency) -> bool {
    let mut ok = true;
    for_each_match(graph, index, &gfd.pattern, |m| {
        if premise_holds(graph, gfd, m) && !consequence_holds(graph, index, gfd, m) {
            ok = false;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    ok
}

/// `G |= Σ`: satisfies every rule in the set.
pub fn graph_satisfies_all(graph: &Graph, sigma: &DepSet) -> bool {
    let index = LabelIndex::build(graph);
    sigma
        .iter()
        .all(|(_, gfd)| graph_satisfies_indexed(graph, &index, gfd))
}

/// Collect up to `limit` violations of Σ in `graph` (the error-detection
/// application the paper motivates with ϕ1–ϕ4).
pub fn find_violations(graph: &Graph, sigma: &DepSet, limit: usize) -> Vec<Violation> {
    let index = LabelIndex::build(graph);
    let mut out = Vec::new();
    for (id, gfd) in sigma.iter() {
        if out.len() >= limit {
            break;
        }
        for_each_match(graph, &index, &gfd.pattern, |m| {
            if premise_holds(graph, gfd, m) && !consequence_holds(graph, &index, gfd, m) {
                out.push(Violation {
                    gfd: id,
                    m: m.into(),
                });
                if out.len() >= limit {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use gfd_graph::{Pattern, Value, VarId, Vocab};

    /// The paper's ϕ1 scenario: Bamburi airport located in Bamburi which is
    /// "part of" the airport — a cyclic inconsistency.
    #[test]
    fn phi1_catches_dbpedia_cycle() {
        let mut vocab = Vocab::new();
        let place = vocab.label("place");
        let locate = vocab.label("locateIn");
        let part = vocab.label("partOf");

        let mut q1 = Pattern::new();
        let x = q1.add_node(place, "x");
        let y = q1.add_node(place, "y");
        q1.add_edge(x, locate, y);
        q1.add_edge(y, part, x);
        let phi1 = Dependency::with_false_consequence("phi1", q1, vec![], &mut vocab);

        // Clean graph: airport in city, no back-edge.
        let mut clean = Graph::new();
        let airport = clean.add_node(place);
        let city = clean.add_node(place);
        clean.add_edge(airport, locate, city);
        assert!(graph_satisfies(&clean, &phi1));

        // Dirty graph: add the partOf back-edge.
        let mut dirty = clean.clone();
        dirty.add_edge(city, part, airport);
        assert!(!graph_satisfies(&dirty, &phi1));

        let sigma = DepSet::from_vec(vec![phi1]);
        let violations = find_violations(&dirty, &sigma, 10);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].m[0], airport);
        assert_eq!(violations[0].m[1], city);
    }

    /// The paper's ϕ2 scenario: topSpeed is functional — one object, one
    /// top speed.
    #[test]
    fn phi2_catches_two_top_speeds() {
        let mut vocab = Vocab::new();
        let speed = vocab.label("speed");
        let top = vocab.label("topSpeed");
        let val = vocab.attr("val");

        let mut q2 = Pattern::new();
        let x = q2.add_node(gfd_graph::LabelId::WILDCARD, "x");
        let y = q2.add_node(speed, "y");
        let z = q2.add_node(speed, "z");
        q2.add_edge(x, top, y);
        q2.add_edge(x, top, z);
        let phi2 = Dependency::new(
            "phi2",
            q2,
            vec![],
            vec![Literal::eq_attr(VarId::new(1), val, VarId::new(2), val)],
        );

        // The DBpedia tank: two distinct topSpeed values.
        let mut g = Graph::new();
        let tank = g.add_node(vocab.label("tank"));
        let s1 = g.add_node(speed);
        let s2 = g.add_node(speed);
        g.add_edge(tank, top, s1);
        g.add_edge(tank, top, s2);
        g.set_attr(s1, val, Value::str("24.076"));
        g.set_attr(s2, val, Value::str("33.336"));
        assert!(!graph_satisfies(&g, &phi2));

        // Fixing the value restores satisfaction.
        g.set_attr(s2, val, Value::str("24.076"));
        assert!(graph_satisfies(&g, &phi2));
    }

    #[test]
    fn premise_gates_the_consequence() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let gfd = Dependency::new(
            "g",
            p,
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, b, 2i64)],
        );
        let mut g = Graph::new();
        let n = g.add_node(t);
        // No attribute a: premise fails (missing attr ⇒ trivially
        // satisfied).
        assert!(graph_satisfies(&g, &gfd));
        g.set_attr(n, a, Value::int(1));
        // Premise holds, consequence missing: violation.
        assert!(!graph_satisfies(&g, &gfd));
        g.set_attr(n, b, Value::int(2));
        assert!(graph_satisfies(&g, &gfd));
    }

    #[test]
    fn violation_limit_is_respected() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let gfd = Dependency::new("g", p, vec![], vec![Literal::eq_const(x, a, 1i64)]);
        let mut g = Graph::new();
        for _ in 0..10 {
            g.add_node(t);
        }
        let sigma = DepSet::from_vec(vec![gfd]);
        assert_eq!(find_violations(&g, &sigma, 3).len(), 3);
        assert_eq!(find_violations(&g, &sigma, 100).len(), 10);
    }

    /// A generating consequence holds at a match some extension realizes:
    /// every `t` node needs a `u` child carrying its `a`.
    #[test]
    fn generating_consequence_is_checked_by_realization() {
        use crate::dependency::GenerateConsequence;
        let mut vocab = Vocab::new();
        let (t, u, e) = (vocab.label("t"), vocab.label("u"), vocab.label("e"));
        let a = vocab.attr("a");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let mut gen = GenerateConsequence::over(&p);
        let y = gen.add_fresh(u, "y");
        gen.add_edge(x, e, y);
        gen.push_attr(Literal::eq_attr(y, a, x, a));
        let sigma = DepSet::from_vec(vec![Dependency::new("child", p, vec![], gen)]);

        let mut g = Graph::new();
        let n = g.add_node(t);
        g.set_attr(n, a, Value::int(1));
        let child = g.add_node(u);
        g.add_edge(n, e, child);
        // The child exists but does not carry the attribute yet.
        assert_eq!(find_violations(&g, &sigma, 10).len(), 1);
        g.set_attr(child, a, Value::int(1));
        assert!(graph_satisfies_all(&g, &sigma));
    }
}
