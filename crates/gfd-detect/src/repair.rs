//! Minimal repair suggestions for detected violations.
//!
//! The paper motivates GFD reasoning as a validator for "data quality
//! rules" used in rule-based cleaning. Given a violation (a match whose
//! premise holds but whose consequence fails), the minimal ways to restore
//! consistency are:
//!
//! 1. **bind** — set the failing attribute to the required value
//!    (constant literals, or attribute literals with one side present);
//! 2. **equalize** — pick either side of a failing `x.A = y.B` literal
//!    when both sides exist but disagree;
//! 3. **break the match** — for denial GFDs (`… → false`) no attribute
//!    assignment can help; the only repair is deleting a pattern edge of
//!    the match.
//!
//! These are *suggestions*: chasing repairs to a global fixpoint is a
//! separate (and much harder) problem the paper leaves to cleaning systems.

use crate::report::ViolationRecord;
use gfd_core::{Consequence, DepSet, GenerateConsequence, Operand};
use gfd_graph::{AttrId, Graph, LabelId, NodeId, ValueId, Vocab};

/// One suggested fix.
#[derive(Clone, Debug, PartialEq)]
pub struct Repair {
    /// What to do.
    pub kind: RepairKind,
    /// Human-readable rendering (stable across kinds).
    pub description: String,
}

/// An endpoint of a generated edge or attribute in a
/// [`RepairKind::CreateSubgraph`]: either a node that already exists in
/// the graph or the `i`-th node the repair itself creates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairNode {
    /// An existing graph node (a shared variable's binding).
    Existing(NodeId),
    /// The `i`-th fresh node of the repair's `nodes` list.
    Fresh(usize),
}

/// The kinds of minimal repair.
#[derive(Clone, Debug, PartialEq)]
pub enum RepairKind {
    /// Set `node.attr = value`.
    SetAttr {
        /// Node to update.
        node: NodeId,
        /// Attribute to set.
        attr: AttrId,
        /// Required value (interned).
        value: ValueId,
    },
    /// Delete the edge `src --label--> dst` (breaks the pattern match).
    DeleteEdge {
        /// Edge source.
        src: NodeId,
        /// Edge label.
        label: LabelId,
        /// Edge target.
        dst: NodeId,
    },
    /// Create the missing target subgraph of a generating dependency:
    /// the fresh nodes, the generated edges, and every attribute
    /// assignment that resolves to a concrete value on the current data.
    CreateSubgraph {
        /// Labels of the fresh nodes to create, in order.
        nodes: Vec<LabelId>,
        /// Generated edges over existing/fresh endpoints.
        edges: Vec<(RepairNode, LabelId, RepairNode)>,
        /// Concrete attribute writes on existing/fresh endpoints.
        attrs: Vec<(RepairNode, AttrId, ValueId)>,
    },
}

/// Suggest minimal repairs for one violation.
pub fn suggest_repairs(
    graph: &Graph,
    sigma: &DepSet,
    violation: &ViolationRecord,
    vocab: &Vocab,
) -> Vec<Repair> {
    let dep = sigma.get(violation.gfd);
    let mut out = Vec::new();

    if dep.is_denial() {
        // No attribute assignment can satisfy `false`: break the match.
        for pe in dep.pattern.edges() {
            let src = violation.m[pe.src.index()];
            let dst = violation.m[pe.dst.index()];
            out.push(Repair {
                kind: RepairKind::DeleteEdge {
                    src,
                    label: pe.label,
                    dst,
                },
                description: format!(
                    "delete edge n{} --{}--> n{}",
                    src.index(),
                    vocab.label_name(pe.label),
                    dst.index(),
                ),
            });
        }
        return out;
    }

    let lits = match &dep.consequence {
        Consequence::Literals(lits) => lits,
        Consequence::Generate(gen) => {
            out.push(create_subgraph_repair(graph, gen, &violation.m, vocab));
            return out;
        }
    };

    for &i in &violation.failed {
        let lit = &lits[i];
        let node = violation.m[lit.var.index()];
        match &lit.rhs {
            Operand::Const(c) => out.push(Repair {
                kind: RepairKind::SetAttr {
                    node,
                    attr: lit.attr,
                    value: *c,
                },
                description: format!(
                    "set n{}.{} = {c:?}",
                    node.index(),
                    vocab.attr_name(lit.attr),
                ),
            }),
            Operand::Attr(v2, a2) => {
                let other = violation.m[v2.index()];
                let left = graph.attr(node, lit.attr);
                let right = graph.attr(other, *a2);
                match (left, right) {
                    (_, Some(rv)) => out.push(Repair {
                        kind: RepairKind::SetAttr {
                            node,
                            attr: lit.attr,
                            value: rv,
                        },
                        description: format!(
                            "set n{}.{} = {rv:?} (copied from n{}.{})",
                            node.index(),
                            vocab.attr_name(lit.attr),
                            other.index(),
                            vocab.attr_name(*a2),
                        ),
                    }),
                    (Some(lv), None) => out.push(Repair {
                        kind: RepairKind::SetAttr {
                            node: other,
                            attr: *a2,
                            value: lv,
                        },
                        description: format!(
                            "set n{}.{} = {lv:?} (copied from n{}.{})",
                            other.index(),
                            vocab.attr_name(*a2),
                            node.index(),
                            vocab.attr_name(lit.attr),
                        ),
                    }),
                    (None, None) => {
                        // Both sides missing: any shared fresh value works;
                        // suggest a null-ish placeholder on both.
                        out.push(Repair {
                            kind: RepairKind::SetAttr {
                                node,
                                attr: lit.attr,
                                value: ValueId::of(""),
                            },
                            description: format!(
                                "create n{}.{} and n{}.{} with a shared value",
                                node.index(),
                                vocab.attr_name(lit.attr),
                                other.index(),
                                vocab.attr_name(*a2),
                            ),
                        });
                    }
                }
                // When both sides exist, overwriting the *other* side is the
                // symmetric alternative.
                if let (Some(lv), Some(_)) = (left, right) {
                    out.push(Repair {
                        kind: RepairKind::SetAttr {
                            node: other,
                            attr: *a2,
                            value: lv,
                        },
                        description: format!(
                            "set n{}.{} = {lv:?} (copied from n{}.{})",
                            other.index(),
                            vocab.attr_name(*a2),
                            node.index(),
                            vocab.attr_name(lit.attr),
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Build the [`RepairKind::CreateSubgraph`] repair for an unrealized
/// generating consequence at match `m`: materialize exactly the target
/// the rule asserts. Attribute assignments whose right-hand side cannot
/// be resolved to a concrete value (a variable literal over attributes
/// absent from the data, or an assignment between two fresh nodes) are
/// noted in the description but omitted from the concrete writes.
fn create_subgraph_repair(
    graph: &Graph,
    gen: &GenerateConsequence,
    m: &[NodeId],
    vocab: &Vocab,
) -> Repair {
    let endpoint = |v: gfd_graph::VarId| -> RepairNode {
        if v.index() < gen.shared {
            RepairNode::Existing(m[v.index()])
        } else {
            RepairNode::Fresh(v.index() - gen.shared)
        }
    };
    let show = |e: RepairNode| -> String {
        match e {
            RepairNode::Existing(n) => format!("n{}", n.index()),
            RepairNode::Fresh(i) => gen
                .pattern
                .var_name(gfd_graph::VarId::new(gen.shared + i))
                .to_string(),
        }
    };
    let nodes: Vec<LabelId> = gen.fresh_vars().map(|v| gen.pattern.label(v)).collect();
    let edges: Vec<(RepairNode, LabelId, RepairNode)> = gen
        .pattern
        .edges()
        .iter()
        .map(|e| (endpoint(e.src), e.label, endpoint(e.dst)))
        .collect();
    let mut attrs = Vec::new();
    let mut unresolved = Vec::new();
    for lit in &gen.attrs {
        let target = endpoint(lit.var);
        let value = match &lit.rhs {
            Operand::Const(c) => Some(*c),
            Operand::Attr(v2, _) if v2.index() >= gen.shared => None,
            Operand::Attr(v2, a2) => graph.attr(m[v2.index()], *a2),
        };
        match value {
            Some(v) => attrs.push((target, lit.attr, v)),
            None => unresolved.push(lit.display(&gen.pattern, vocab).to_string()),
        }
    }

    let mut desc = String::from("create subgraph:");
    for (i, v) in gen.fresh_vars().enumerate() {
        if i > 0 {
            desc.push(',');
        }
        desc.push_str(&format!(
            " node {}: {}",
            gen.pattern.var_name(v),
            vocab.label_name(gen.pattern.label(v))
        ));
    }
    for (src, label, dst) in &edges {
        desc.push_str(&format!(
            ", edge {} -{}-> {}",
            show(*src),
            vocab.label_name(*label),
            show(*dst)
        ));
    }
    for (target, attr, value) in &attrs {
        desc.push_str(&format!(
            ", set {}.{} = {value:?}",
            show(*target),
            vocab.attr_name(*attr)
        ));
    }
    for u in &unresolved {
        desc.push_str(&format!(", then satisfy {u}"));
    }
    Repair {
        kind: RepairKind::CreateSubgraph {
            nodes,
            edges,
            attrs,
        },
        description: desc,
    }
}

/// Apply a repair to the graph (edge deletion rebuilds the graph without
/// the edge; attribute repairs are in-place).
pub fn apply_repair(graph: &mut Graph, repair: &Repair) {
    match &repair.kind {
        RepairKind::SetAttr { node, attr, value } => {
            graph.set_attr_id(*node, *attr, *value);
        }
        RepairKind::CreateSubgraph {
            nodes,
            edges,
            attrs,
        } => {
            let fresh: Vec<NodeId> = nodes.iter().map(|&l| graph.add_node(l)).collect();
            let resolve = |e: RepairNode| -> NodeId {
                match e {
                    RepairNode::Existing(n) => n,
                    RepairNode::Fresh(i) => fresh[i],
                }
            };
            for &(src, label, dst) in edges {
                graph.add_edge(resolve(src), label, resolve(dst));
            }
            for &(target, attr, value) in attrs {
                graph.set_attr_id(resolve(target), attr, value);
            }
        }
        RepairKind::DeleteEdge { src, label, dst } => {
            let mut rebuilt = Graph::with_capacity(graph.node_count());
            for v in graph.nodes() {
                rebuilt.add_node(graph.label(v));
            }
            for (s, l, d) in graph.edges() {
                if s == *src && l == *label && d == *dst {
                    continue;
                }
                rebuilt.add_edge(s, l, d);
            }
            for v in graph.nodes() {
                for (a, val) in graph.attrs(v) {
                    rebuilt.set_attr_id(v, a, val);
                }
            }
            *graph = rebuilt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{detect, DetectConfig};
    use gfd_core::{DepSet, Dependency, Literal};
    use gfd_graph::{Pattern, Value};

    fn vocab_with(f: impl FnOnce(&mut Vocab) -> (Graph, DepSet)) -> (Graph, DepSet, Vocab) {
        let mut vocab = Vocab::new();
        let (g, s) = f(&mut vocab);
        (g, s, vocab)
    }

    #[test]
    fn constant_violation_suggests_set_attr() {
        let (g, sigma, vocab) = vocab_with(|v| {
            let t = v.label("t");
            let a = v.attr("a");
            let mut p = Pattern::new();
            let x = p.add_node(t, "x");
            let gfd = Dependency::new("g", p, vec![], vec![Literal::eq_const(x, a, 1i64)]);
            let mut g = Graph::new();
            let n = g.add_node(t);
            g.set_attr(n, a, Value::int(9));
            (g, DepSet::from_vec(vec![gfd]))
        });
        let report = detect(&g, &sigma, &DetectConfig::with_workers(1));
        assert_eq!(report.violations.len(), 1);
        let repairs = suggest_repairs(&g, &sigma, &report.violations[0], &vocab);
        assert_eq!(repairs.len(), 1);
        assert!(matches!(
            &repairs[0].kind,
            RepairKind::SetAttr { value, .. } if *value == ValueId::of(1i64)
        ));
        // Applying the repair cleans the graph.
        let mut fixed = g.clone();
        apply_repair(&mut fixed, &repairs[0]);
        assert!(detect(&fixed, &sigma, &DetectConfig::with_workers(1)).is_clean());
    }

    #[test]
    fn attr_violation_suggests_both_directions() {
        let (g, sigma, vocab) = vocab_with(|v| {
            let t = v.label("t");
            let e = v.label("e");
            let a = v.attr("a");
            let mut p = Pattern::new();
            let x = p.add_node(t, "x");
            let y = p.add_node(t, "y");
            p.add_edge(x, e, y);
            let gfd = Dependency::new("g", p, vec![], vec![Literal::eq_attr(x, a, y, a)]);
            let mut g = Graph::new();
            let n1 = g.add_node(t);
            let n2 = g.add_node(t);
            g.add_edge(n1, e, n2);
            g.set_attr(n1, a, Value::int(1));
            g.set_attr(n2, a, Value::int(2));
            (g, DepSet::from_vec(vec![gfd]))
        });
        let report = detect(&g, &sigma, &DetectConfig::with_workers(1));
        assert_eq!(report.violations.len(), 1);
        let repairs = suggest_repairs(&g, &sigma, &report.violations[0], &vocab);
        // Copy right-to-left and left-to-right.
        assert_eq!(repairs.len(), 2);
        for r in &repairs {
            let mut fixed = g.clone();
            apply_repair(&mut fixed, r);
            assert!(
                detect(&fixed, &sigma, &DetectConfig::with_workers(1)).is_clean(),
                "repair {} did not clean the graph",
                r.description,
            );
        }
    }

    #[test]
    fn denial_violation_suggests_edge_deletions() {
        let (g, sigma, vocab) = vocab_with(|v| {
            let place = v.label("place");
            let locate = v.label("locateIn");
            let part = v.label("partOf");
            let mut q = Pattern::new();
            let x = q.add_node(place, "x");
            let y = q.add_node(place, "y");
            q.add_edge(x, locate, y);
            q.add_edge(y, part, x);
            let gfd = Dependency::with_false_consequence("phi1", q, vec![], v);
            let mut g = Graph::new();
            let airport = g.add_node(place);
            let city = g.add_node(place);
            g.add_edge(airport, locate, city);
            g.add_edge(city, part, airport);
            (g, DepSet::from_vec(vec![gfd]))
        });
        let report = detect(&g, &sigma, &DetectConfig::with_workers(1));
        assert_eq!(report.violations.len(), 1);
        let repairs = suggest_repairs(&g, &sigma, &report.violations[0], &vocab);
        // One deletion per pattern edge.
        assert_eq!(repairs.len(), 2);
        for r in &repairs {
            assert!(matches!(r.kind, RepairKind::DeleteEdge { .. }));
            let mut fixed = g.clone();
            apply_repair(&mut fixed, r);
            assert!(
                detect(&fixed, &sigma, &DetectConfig::with_workers(1)).is_clean(),
                "repair {} did not clean the graph",
                r.description,
            );
        }
    }

    #[test]
    fn generate_violation_suggests_create_subgraph() {
        let mut vocab = Vocab::new();
        let person = vocab.label("person");
        let meeting = vocab.label("meeting");
        let attends = vocab.label("attends");
        let city = vocab.attr("city");
        let mut p = Pattern::new();
        let x = p.add_node(person, "x");
        let mut gen = GenerateConsequence::over(&p);
        let m = gen.add_fresh(meeting, "m");
        gen.add_edge(x, attends, m);
        gen.push_attr(Literal::eq_attr(m, city, x, city));
        let dep = Dependency::new("meetup", p, vec![], gen);
        let sigma = DepSet::from_vec(vec![dep]);
        let mut g = Graph::new();
        let n = g.add_node(person);
        g.set_attr(n, city, Value::str("nbo"));

        let report = detect(&g, &sigma, &DetectConfig::with_workers(1));
        assert_eq!(report.violations.len(), 1);
        let repairs = suggest_repairs(&g, &sigma, &report.violations[0], &vocab);
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].description.contains("create subgraph"));
        assert!(
            repairs[0].description.contains("node m: meeting"),
            "{}",
            repairs[0].description
        );
        // Applying the repair realizes the target: the graph is clean.
        let mut fixed = g.clone();
        apply_repair(&mut fixed, &repairs[0]);
        assert_eq!(fixed.node_count(), 2);
        assert!(
            detect(&fixed, &sigma, &DetectConfig::with_workers(1)).is_clean(),
            "materializing the target must clean the graph"
        );
    }

    #[test]
    fn missing_both_sides_suggests_shared_value() {
        let (g, sigma, vocab) = vocab_with(|v| {
            let t = v.label("t");
            let a = v.attr("a");
            let b = v.attr("b");
            let c = v.attr("c");
            let mut p = Pattern::new();
            let x = p.add_node(t, "x");
            let gfd = Dependency::new(
                "g",
                p,
                vec![Literal::eq_const(x, c, 1i64)],
                vec![Literal::eq_attr(x, a, x, b)],
            );
            let mut g = Graph::new();
            let n = g.add_node(t);
            g.set_attr(n, c, Value::int(1));
            (g, DepSet::from_vec(vec![gfd]))
        });
        let report = detect(&g, &sigma, &DetectConfig::with_workers(1));
        assert_eq!(report.violations.len(), 1);
        let repairs = suggest_repairs(&g, &sigma, &report.violations[0], &vocab);
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].description.contains("shared value"));
    }
}
