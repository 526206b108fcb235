//! Pretty-printer for the GFD text format (round-trips through the
//! parser).

use gfd_core::{Consequence, DepSet, Dependency, Operand};
use gfd_graph::{Graph, Pattern, Value, ValueId, Vocab};
use std::fmt::Write as _;

fn print_value_id(v: &ValueId, out: &mut String) {
    print_value(&v.resolve(), out);
}

fn print_value(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => {
            let escaped = s
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let _ = write!(out, "\"{escaped}\"");
        }
    }
}

/// Render a comma-separated literal list with variable names resolved
/// against `pattern` (for GGDs this is the *target* pattern, which
/// extends the premise variables with the fresh ones).
fn print_literals(lits: &[gfd_core::Literal], pattern: &Pattern, vocab: &Vocab, out: &mut String) {
    for (i, lit) in lits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}.{} = ",
            pattern.var_name(lit.var),
            vocab.attr_name(lit.attr)
        );
        match &lit.rhs {
            Operand::Const(v) => print_value_id(v, out),
            Operand::Attr(v2, a2) => {
                let _ = write!(out, "{}.{}", pattern.var_name(*v2), vocab.attr_name(*a2));
            }
        }
    }
}

/// Render the `node` lines of `vars` and every `edge` line of `pattern`,
/// one per line at four spaces — the body of a `pattern { ... }` block
/// and, over the fresh variables of a target pattern, of `create { ... }`.
fn print_nodes_and_edges(
    pattern: &Pattern,
    vars: impl Iterator<Item = gfd_graph::VarId>,
    vocab: &Vocab,
    out: &mut String,
) {
    for v in vars {
        let _ = writeln!(
            out,
            "    node {}: {}",
            pattern.var_name(v),
            vocab.label_name(pattern.label(v))
        );
    }
    for e in pattern.edges() {
        let _ = writeln!(
            out,
            "    edge {} -{}-> {}",
            pattern.var_name(e.src),
            vocab.label_name(e.label),
            pattern.var_name(e.dst)
        );
    }
}

/// Render a `pattern { ... }` block (shared by all rule kinds).
fn print_pattern(pattern: &Pattern, vocab: &Vocab, out: &mut String) {
    out.push_str("  pattern {\n");
    print_nodes_and_edges(pattern, pattern.vars(), vocab, out);
    out.push_str("  }\n");
}

/// Render one dependency in the text format: a literal consequence prints
/// as a `gfd` block, a generating one as a `ggd` block with a
/// `create { ... }` consequence. Round-trips through
/// [`crate::parse_document`].
pub fn print_dependency(dep: &Dependency, vocab: &Vocab) -> String {
    let mut out = String::new();
    let kind = if dep.is_generating() { "ggd" } else { "gfd" };
    let _ = writeln!(out, "{kind} {} {{", dep.name);
    print_pattern(&dep.pattern, vocab, &mut out);
    if !dep.premise.is_empty() {
        out.push_str("  when { ");
        print_literals(&dep.premise, &dep.pattern, vocab, &mut out);
        out.push_str(" }\n");
    }
    match &dep.consequence {
        Consequence::Literals(lits) => {
            // Print `false` only for the exact canonical denial encoding
            // (the one `Dependency::with_false_consequence` produces);
            // other denial-shaped consequences keep their literals so
            // round-trips are lossless.
            let canonical_false = lits.len() == 2
                && dep.is_denial()
                && lits
                    .iter()
                    .all(|l| vocab.attr_name(l.attr) == gfd_core::FALSE_ATTR_NAME);
            if canonical_false {
                out.push_str("  then { false }\n");
            } else {
                out.push_str("  then { ");
                print_literals(lits, &dep.pattern, vocab, &mut out);
                out.push_str(" }\n");
            }
        }
        Consequence::Generate(gen) => {
            out.push_str("  create {\n");
            print_nodes_and_edges(&gen.pattern, gen.fresh_vars(), vocab, &mut out);
            if !gen.attrs.is_empty() {
                out.push_str("    set { ");
                print_literals(&gen.attrs, &gen.pattern, vocab, &mut out);
                out.push_str(" }\n");
            }
            out.push_str("  }\n");
        }
    }
    out.push_str("}\n");
    out
}

/// Render a dependency set, one rule after another, in the canonical form
/// `gfd fmt` emits.
pub fn print_dep_set(sigma: &DepSet, vocab: &Vocab) -> String {
    let mut out = String::new();
    for (_, dep) in sigma.iter() {
        out.push_str(&print_dependency(dep, vocab));
        out.push('\n');
    }
    out
}

fn print_ged_literals(
    lits: &[gfd_ged::GedLiteral],
    pattern: &gfd_graph::Pattern,
    vocab: &Vocab,
    out: &mut String,
) {
    use gfd_ged::GedLiteral;
    for (i, lit) in lits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match lit {
            GedLiteral::AttrConst {
                var,
                attr,
                op,
                value,
            } => {
                let _ = write!(
                    out,
                    "{}.{} {} ",
                    pattern.var_name(*var),
                    vocab.attr_name(*attr),
                    op.symbol()
                );
                print_value_id(value, out);
            }
            GedLiteral::AttrAttr {
                var,
                attr,
                op,
                other_var,
                other_attr,
            } => {
                let _ = write!(
                    out,
                    "{}.{} {} {}.{}",
                    pattern.var_name(*var),
                    vocab.attr_name(*attr),
                    op.symbol(),
                    pattern.var_name(*other_var),
                    vocab.attr_name(*other_attr)
                );
            }
            GedLiteral::Id { left, right } => {
                let _ = write!(
                    out,
                    "{}.id = {}.id",
                    pattern.var_name(*left),
                    pattern.var_name(*right)
                );
            }
        }
    }
}

/// Render one GED in the text format (round-trips through
/// [`crate::parse_ged`]).
pub fn print_ged(ged: &gfd_ged::Ged, vocab: &Vocab) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ged {} {{", ged.name);
    print_pattern(&ged.pattern, vocab, &mut out);
    if !ged.premise.is_empty() {
        out.push_str("  when { ");
        print_ged_literals(&ged.premise, &ged.pattern, vocab, &mut out);
        out.push_str(" }\n");
    }
    if ged.disjuncts.is_empty() {
        out.push_str("  then { false }\n");
    } else {
        for (i, disjunct) in ged.disjuncts.iter().enumerate() {
            out.push_str(if i == 0 { "  then { " } else { "  or { " });
            print_ged_literals(disjunct, &ged.pattern, vocab, &mut out);
            out.push_str(" }\n");
        }
    }
    out.push_str("}\n");
    out
}

/// Render a GED set, one after another.
pub fn print_ged_set(sigma: &gfd_ged::GedSet, vocab: &Vocab) -> String {
    let mut out = String::new();
    for (_, ged) in sigma.iter() {
        out.push_str(&print_ged(ged, vocab));
        out.push('\n');
    }
    out
}

/// Render a data graph in the text format.
pub fn print_graph(name: &str, graph: &Graph, vocab: &Vocab) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {name} {{");
    for v in graph.nodes() {
        let _ = write!(
            out,
            "  node n{}: {}",
            v.index(),
            vocab.label_name(graph.label(v))
        );
        let mut attrs = graph.attrs(v).peekable();
        if attrs.peek().is_none() {
            out.push('\n');
        } else {
            out.push_str(" { ");
            for (i, (attr, value)) in attrs.enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{} = ", vocab.attr_name(attr));
                print_value_id(&value, &mut out);
            }
            out.push_str(" }\n");
        }
    }
    for (src, label, dst) in graph.edges() {
        let _ = writeln!(
            out,
            "  edge n{} -{}-> n{}",
            src.index(),
            vocab.label_name(label),
            dst.index()
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_dependency, parse_document};
    use gfd_core::Literal;
    use gfd_graph::{NodeId, Pattern, VarId};

    #[test]
    fn gfd_round_trip() {
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label("person"), "x");
        let y = p.add_node(vocab.label("person"), "y");
        p.add_edge(x, vocab.label("knows"), y);
        let nat = vocab.attr("nationality");
        let gfd = Dependency::new(
            "phi",
            p,
            vec![Literal::eq_const(x, nat, "FR")],
            vec![Literal::eq_attr(x, nat, y, nat)],
        );
        let printed = print_dependency(&gfd, &vocab);
        let reparsed = parse_dependency(&printed, &mut vocab).unwrap();
        assert_eq!(reparsed.name, gfd.name);
        assert_eq!(reparsed.premise, gfd.premise);
        assert_eq!(reparsed.consequence.literals(), gfd.consequence.literals());
        assert_eq!(reparsed.pattern.edges(), gfd.pattern.edges());
        assert_eq!(reparsed.pattern.node_labels(), gfd.pattern.node_labels());
    }

    #[test]
    fn denial_round_trip() {
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "x");
        let gfd = Dependency::with_false_consequence("deny", p, vec![], &mut vocab);
        let printed = print_dependency(&gfd, &vocab);
        assert!(printed.contains("then { false }"));
        let reparsed = parse_dependency(&printed, &mut vocab).unwrap();
        assert!(reparsed.is_denial());
    }

    #[test]
    fn graph_round_trip() {
        let mut vocab = Vocab::new();
        let mut g = Graph::new();
        let a = g.add_node(vocab.label("place"));
        let b = g.add_node(vocab.label("place"));
        g.add_edge(a, vocab.label("locateIn"), b);
        g.set_attr(a, vocab.attr("name"), Value::str("airport \"x\""));
        g.set_attr(a, vocab.attr("pop"), Value::Int(-5));
        let printed = print_graph("G", &g, &vocab);
        let doc = parse_document(&printed, &mut vocab).unwrap();
        let g2 = &doc.graphs[0].1;
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        assert_eq!(
            g2.attr(NodeId::new(0), vocab.find_attr("name").unwrap()),
            Some(ValueId::of("airport \"x\""))
        );
        assert_eq!(
            g2.attr(NodeId::new(0), vocab.find_attr("pop").unwrap()),
            Some(ValueId::of(-5i64))
        );
    }

    #[test]
    fn ggd_round_trip() {
        use gfd_core::{Dependency, GenerateConsequence};
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label("person"), "x");
        let y = p.add_node(vocab.label("person"), "y");
        p.add_edge(x, vocab.label("knows"), y);
        let city = vocab.attr("city");
        let mut gen = GenerateConsequence::over(&p);
        let m = gen.add_fresh(vocab.label("meeting"), "m");
        gen.add_edge(x, vocab.label("attends"), m);
        gen.add_edge(y, vocab.label("attends"), m);
        gen.push_attr(Literal::eq_attr(m, city, x, city));
        let dep = Dependency::new("meetup", p, vec![Literal::eq_attr(x, city, y, city)], gen);
        let printed = print_dependency(&dep, &vocab);
        assert!(printed.contains("ggd meetup {"), "{printed}");
        assert!(printed.contains("create {"), "{printed}");
        assert!(printed.contains("node m: meeting"), "{printed}");
        assert!(printed.contains("set { m.city = x.city }"), "{printed}");
        let doc = parse_document(&printed, &mut vocab).unwrap();
        assert_eq!(doc.deps.len(), 1);
        let back = doc.deps.get(gfd_graph::GfdId::new(0));
        assert_eq!(back.name, dep.name);
        assert_eq!(back.premise, dep.premise);
        let (gfd_core::Consequence::Generate(g1), gfd_core::Consequence::Generate(g2)) =
            (&back.consequence, &dep.consequence)
        else {
            panic!("both must generate")
        };
        assert_eq!(g1.shared, g2.shared);
        assert_eq!(g1.pattern.edges(), g2.pattern.edges());
        assert_eq!(g1.attrs, g2.attrs);
        // Printing again is a fixpoint.
        assert_eq!(print_dependency(back, &vocab), printed);
    }

    #[test]
    fn literal_dependency_prints_a_gfd_block() {
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label("t"), "x");
        let a = vocab.attr("a");
        let dep = Dependency::new("g", p, vec![], vec![Literal::eq_const(x, a, 1i64)]);
        assert_eq!(
            print_dependency(&dep, &vocab),
            "gfd g {\n  pattern {\n    node x: t\n  }\n  then { x.a = 1 }\n}\n"
        );
    }

    #[test]
    fn ged_round_trip_with_all_features() {
        use gfd_ged::{CmpOp, Ged, GedLiteral};
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label("person"), "x");
        let y = p.add_node(vocab.label("person"), "y");
        p.add_edge(x, vocab.label("knows"), y);
        let age = vocab.attr("age");
        let email = vocab.attr("email");
        let ged = Ged::new(
            "k",
            p,
            vec![
                GedLiteral::eq_attr(x, email, y, email),
                GedLiteral::cmp_const(x, age, CmpOp::Ge, 18i64),
            ],
            vec![
                vec![GedLiteral::id(x, y)],
                vec![GedLiteral::cmp_attr(x, age, CmpOp::Ne, y, age)],
            ],
        );
        let printed = print_ged(&ged, &vocab);
        assert!(printed.contains("x.age >= 18"), "{printed}");
        assert!(printed.contains("x.id = y.id"), "{printed}");
        assert!(printed.contains("or {"), "{printed}");
        let reparsed = crate::parse_ged(&printed, &mut vocab).unwrap();
        assert_eq!(reparsed.premise, ged.premise);
        assert_eq!(reparsed.disjuncts, ged.disjuncts);
        // Printing again is a fixpoint.
        assert_eq!(print_ged(&reparsed, &vocab), printed);
    }

    #[test]
    fn ged_denial_round_trip() {
        use gfd_ged::Ged;
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "x");
        let ged = Ged::denial("never", p, vec![]);
        let printed = print_ged(&ged, &vocab);
        assert!(printed.contains("then { false }"), "{printed}");
        let reparsed = crate::parse_ged(&printed, &mut vocab).unwrap();
        assert!(reparsed.is_denial());
    }

    #[test]
    fn var_names_survive() {
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "alpha");
        p.add_node(vocab.label("t"), "beta");
        let a = vocab.attr("a");
        let gfd = Dependency::new(
            "named",
            p,
            vec![],
            vec![Literal::eq_attr(VarId::new(0), a, VarId::new(1), a)],
        );
        let printed = print_dependency(&gfd, &vocab);
        assert!(printed.contains("alpha.a = beta.a"), "{printed}");
        let reparsed = parse_dependency(&printed, &mut vocab).unwrap();
        assert_eq!(reparsed.pattern.var_name(VarId::new(0)), "alpha");
    }
}
