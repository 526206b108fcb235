//! A human-readable text format for graphs and rules (`gfd`, `ggd` and
//! `ged` blocks).
//!
//! Parsing ([`parser`]) and printing ([`printer`]) round-trip; see the
//! grammar sketch in [`parser`]. Used by the examples and integration
//! tests, and convenient for storing rule sets on disk.
//!
//! ```
//! use gfd_graph::Vocab;
//! let mut vocab = Vocab::new();
//! let phi2 = gfd_dsl::parse_dependency(
//!     "gfd phi2 {
//!        pattern {
//!          node x: _
//!          node y: speed
//!          node z: speed
//!          edge x -topSpeed-> y
//!          edge x -topSpeed-> z
//!        }
//!        then { y.val = z.val }
//!      }",
//!     &mut vocab,
//! ).unwrap();
//! assert_eq!(phi2.pattern.node_count(), 3);
//! assert!(!phi2.is_generating());
//! let printed = gfd_dsl::print_dependency(&phi2, &vocab);
//! let again = gfd_dsl::parse_dependency(&printed, &mut vocab).unwrap();
//! assert_eq!(again.premise, phi2.premise);
//! assert_eq!(gfd_dsl::print_dependency(&again, &vocab), printed);
//! ```

#![warn(missing_docs)]

pub mod parser;
pub mod printer;
pub mod token;

pub use parser::{parse_dependency, parse_document, parse_ged, Document};
pub use printer::{print_dep_set, print_dependency, print_ged, print_ged_set, print_graph};
pub use token::ParseError;

#[cfg(test)]
mod proptests {
    use gfd_core::{Consequence, Dependency, Literal};
    use gfd_graph::{LabelId, Pattern, Value, VarId, Vocab};
    use proptest::prelude::*;

    /// Strategy: a small random GFD over a fixed vocabulary shape.
    fn arb_gfd() -> impl Strategy<Value = (Dependency, Vocab)> {
        let label_names = ["t", "u", "v"];
        let attr_names = ["a", "b", "c"];
        (
            1usize..4,
            proptest::collection::vec((0usize..3, 0usize..3, 0usize..3), 0..4),
            proptest::collection::vec(
                (
                    0usize..3,
                    0usize..3,
                    proptest::option::of(0i64..5),
                    0usize..3,
                    0usize..3,
                ),
                0..3,
            ),
            proptest::collection::vec(
                (
                    0usize..3,
                    0usize..3,
                    proptest::option::of(0i64..5),
                    0usize..3,
                    0usize..3,
                ),
                1..3,
            ),
        )
            .prop_map(move |(k, edges, pre, post)| {
                let mut vocab = Vocab::new();
                let labels: Vec<LabelId> = label_names.iter().map(|n| vocab.label(n)).collect();
                let attrs: Vec<_> = attr_names.iter().map(|n| vocab.attr(n)).collect();
                let mut p = Pattern::new();
                for i in 0..k {
                    p.add_node(labels[i % labels.len()], format!("x{i}"));
                }
                for (s, l, d) in edges {
                    p.add_edge(
                        VarId::new(s % k),
                        labels[l % labels.len()],
                        VarId::new(d % k),
                    );
                }
                let mk = |items: Vec<(usize, usize, Option<i64>, usize, usize)>| {
                    items
                        .into_iter()
                        .map(|(v, a, c, v2, a2)| match c {
                            Some(c) => Literal::eq_const(
                                VarId::new(v % k),
                                attrs[a % attrs.len()],
                                Value::Int(c),
                            ),
                            None => Literal::eq_attr(
                                VarId::new(v % k),
                                attrs[a % attrs.len()],
                                VarId::new(v2 % k),
                                attrs[a2 % attrs.len()],
                            ),
                        })
                        .collect::<Vec<_>>()
                };
                (Dependency::new("g", p, mk(pre), mk(post)), vocab)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// print → parse is the identity on rule structure, for both
        /// consequence kinds.
        #[test]
        fn gfd_print_parse_round_trip((dep, vocab) in prop_oneof![arb_gfd(), arb_ggd()]) {
            let mut vocab = vocab;
            let printed = crate::print_dependency(&dep, &vocab);
            let reparsed = crate::parse_dependency(&printed, &mut vocab)
                .expect("printer output must parse");
            prop_assert_eq!(&reparsed.premise, &dep.premise);
            prop_assert_eq!(reparsed.pattern.edges(), dep.pattern.edges());
            prop_assert_eq!(reparsed.pattern.node_labels(), dep.pattern.node_labels());
            match (&reparsed.consequence, &dep.consequence) {
                (Consequence::Literals(back), Consequence::Literals(lits)) => {
                    prop_assert_eq!(back, lits);
                }
                (Consequence::Generate(back), Consequence::Generate(gen)) => {
                    prop_assert_eq!(back.shared, gen.shared);
                    prop_assert_eq!(back.pattern.edges(), gen.pattern.edges());
                    prop_assert_eq!(back.pattern.node_labels(), gen.pattern.node_labels());
                    prop_assert_eq!(&back.attrs, &gen.attrs);
                }
                _ => prop_assert!(false, "consequence kind changed:\n{}", printed),
            }
            // Printing again is a fixpoint.
            let printed2 = crate::print_dependency(&reparsed, &vocab);
            prop_assert_eq!(printed, printed2);
        }

        /// Sets round-trip element-wise.
        #[test]
        fn set_print_parse_round_trip(gv in proptest::collection::vec(arb_gfd(), 1..3)) {
            // Merge into one vocab by reprinting each with its own vocab
            // then parsing the concatenation with a fresh one.
            let mut src = String::new();
            for (i, (gfd, vocab)) in gv.iter().enumerate() {
                let mut g = gfd.clone();
                g.name = format!("g{i}");
                src.push_str(&crate::print_dependency(&g, vocab));
            }
            let mut vocab = Vocab::new();
            let doc = crate::parse_document(&src, &mut vocab).expect("parse set");
            prop_assert_eq!(doc.deps.len(), gv.len());
        }

        /// Fuzz (DESIGN.md §11): the parser is panic-free on arbitrary
        /// text — every input yields a document or a structured error.
        #[test]
        fn parse_document_never_panics(src in "\\PC*") {
            let mut vocab = Vocab::new();
            let _ = crate::parse_document(&src, &mut vocab);
        }

        /// …and on token soup built from the DSL's own keywords and
        /// punctuation, which reaches far deeper than random text.
        #[test]
        fn parse_document_never_panics_on_token_soup(
            picks in proptest::collection::vec(0usize..25, 0..40),
        ) {
            const POOL: [&str; 25] = [
                "graph", "gfd", "ggd", "ged", "pattern", "when", "then",
                "create", "set", "node", "edge", "{", "}", ":", "=", ">=",
                ",", ".", "->", "-e->", "x", "t", "1", "\"s", "_",
            ];
            let src = picks
                .iter()
                .map(|i| POOL[*i])
                .collect::<Vec<_>>()
                .join(" ");
            let mut vocab = Vocab::new();
            let _ = crate::parse_document(&src, &mut vocab);
        }
    }

    /// Strategy: a small random GED with order predicates, id literals
    /// and up to three disjuncts.
    fn arb_ged() -> impl Strategy<Value = (gfd_ged::Ged, Vocab)> {
        use gfd_ged::{CmpOp, Ged, GedLiteral};
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        (
            2usize..4,
            proptest::collection::vec((0usize..3, 0usize..3, 0usize..3), 0..3),
            proptest::collection::vec(
                (
                    0usize..3,
                    0usize..3,
                    0usize..6,
                    proptest::option::of(0i64..5),
                    0usize..3,
                ),
                0..3,
            ),
            proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![
                        // 0 = attr literal, 1 = id literal
                        (
                            0usize..3,
                            0usize..3,
                            0usize..6,
                            proptest::option::of(0i64..5),
                            0usize..3
                        )
                            .prop_map(|t| (0usize, t)),
                        (0usize..3, 0usize..3).prop_map(|(a, b)| (1usize, (a, b, 0, None, 0))),
                    ],
                    1..3,
                ),
                1..3,
            ),
        )
            .prop_map(move |(k, edges, premise, disjuncts)| {
                let mut vocab = Vocab::new();
                let t = vocab.label("t");
                let e = vocab.label("e");
                let attrs = [vocab.attr("a"), vocab.attr("b"), vocab.attr("c")];
                let mut p = Pattern::new();
                for i in 0..k {
                    p.add_node(t, format!("x{i}"));
                }
                for (s, _, d) in &edges {
                    p.add_edge(VarId::new(s % k), e, VarId::new(d % k));
                }
                let mk_attr_lit =
                    |(v, a, op, c, v2): (usize, usize, usize, Option<i64>, usize)| match c {
                        Some(c) => GedLiteral::cmp_const(
                            VarId::new(v % k),
                            attrs[a % attrs.len()],
                            ops[op % ops.len()],
                            c,
                        ),
                        None => GedLiteral::cmp_attr(
                            VarId::new(v % k),
                            attrs[a % attrs.len()],
                            ops[op % ops.len()],
                            VarId::new(v2 % k),
                            attrs[(a + 1) % attrs.len()],
                        ),
                    };
                let premise: Vec<GedLiteral> = premise
                    .into_iter()
                    .map(|(v, a, op, c, v2)| mk_attr_lit((v, a, op, c, v2)))
                    .collect();
                let disjuncts: Vec<Vec<GedLiteral>> = disjuncts
                    .into_iter()
                    .map(|lits| {
                        lits.into_iter()
                            .map(|(kind, t)| {
                                if kind == 1 {
                                    GedLiteral::id(VarId::new(t.0 % k), VarId::new(t.1 % k))
                                } else {
                                    mk_attr_lit(t)
                                }
                            })
                            .collect()
                    })
                    .collect();
                (Ged::new("g", p, premise, disjuncts), vocab)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// GED print → parse is the identity, and printing is a fixpoint.
        #[test]
        fn ged_print_parse_round_trip((ged, vocab) in arb_ged()) {
            let mut vocab = vocab;
            let printed = crate::print_ged(&ged, &vocab);
            let reparsed = crate::parse_ged(&printed, &mut vocab)
                .expect("printer output must parse");
            prop_assert_eq!(&reparsed.premise, &ged.premise);
            prop_assert_eq!(&reparsed.disjuncts, &ged.disjuncts);
            prop_assert_eq!(reparsed.pattern.edges(), ged.pattern.edges());
            let printed2 = crate::print_ged(&reparsed, &vocab);
            prop_assert_eq!(printed, printed2);
        }
    }

    /// Strategy: a small random GGD — premise pattern over t/u/v labels,
    /// 1–2 fresh nodes, generated edges over the combined variable space
    /// and attribute assignments (`set`).
    fn arb_ggd() -> impl Strategy<Value = (Dependency, Vocab)> {
        use gfd_core::GenerateConsequence;
        (
            1usize..3,
            proptest::collection::vec((0usize..3, 0usize..3, 0usize..3), 0..3),
            1usize..3,
            proptest::collection::vec((0usize..5, 0usize..3, 0usize..5), 1..4),
            proptest::collection::vec(
                (
                    0usize..5,
                    0usize..3,
                    proptest::option::of(0i64..5),
                    0usize..5,
                    0usize..3,
                ),
                0..3,
            ),
            proptest::collection::vec(
                (
                    0usize..3,
                    0usize..3,
                    proptest::option::of(0i64..5),
                    0usize..3,
                    0usize..3,
                ),
                0..2,
            ),
        )
            .prop_map(move |(k, edges, fresh, gen_edges, gen_attrs, premise)| {
                let mut vocab = Vocab::new();
                let labels = [vocab.label("t"), vocab.label("u"), vocab.label("v")];
                let attrs = [vocab.attr("a"), vocab.attr("b"), vocab.attr("c")];
                let mut p = Pattern::new();
                for i in 0..k {
                    p.add_node(labels[i % labels.len()], format!("x{i}"));
                }
                for (s, l, d) in edges {
                    p.add_edge(
                        VarId::new(s % k),
                        labels[l % labels.len()],
                        VarId::new(d % k),
                    );
                }
                let premise: Vec<Literal> = premise
                    .into_iter()
                    .map(|(v, a, c, v2, a2)| match c {
                        Some(c) => Literal::eq_const(
                            VarId::new(v % k),
                            attrs[a % attrs.len()],
                            Value::Int(c),
                        ),
                        None => Literal::eq_attr(
                            VarId::new(v % k),
                            attrs[a % attrs.len()],
                            VarId::new(v2 % k),
                            attrs[a2 % attrs.len()],
                        ),
                    })
                    .collect();
                let mut gen = GenerateConsequence::over(&p);
                for i in 0..fresh {
                    gen.add_fresh(labels[i % labels.len()], format!("f{i}"));
                }
                let total = k + fresh;
                for (s, l, d) in gen_edges {
                    gen.add_edge(
                        VarId::new(s % total),
                        labels[l % labels.len()],
                        VarId::new(d % total),
                    );
                }
                for (v, a, c, v2, a2) in gen_attrs {
                    let lit = match c {
                        Some(c) => Literal::eq_const(
                            VarId::new(v % total),
                            attrs[a % attrs.len()],
                            Value::Int(c),
                        ),
                        None => Literal::eq_attr(
                            VarId::new(v % total),
                            attrs[a % attrs.len()],
                            VarId::new(v2 % total),
                            attrs[a2 % attrs.len()],
                        ),
                    };
                    gen.push_attr(lit);
                }
                (Dependency::new("g", p, premise, gen), vocab)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Mixed GFD/GGD rule files round-trip: print → parse preserves
        /// every rule's structure in order, and printing the reparsed
        /// document is a fixpoint (`gfd fmt` canonicalization is stable).
        #[test]
        fn mixed_rule_file_round_trip(
            rules in proptest::collection::vec(
                prop_oneof![arb_gfd(), arb_ggd()],
                1..4,
            )
        ) {
            let mut src = String::new();
            for (i, (dep, vocab)) in rules.iter().enumerate() {
                let mut named = dep.clone();
                named.name = format!("r{i}");
                src.push_str(&crate::print_dependency(&named, vocab));
            }
            let mut vocab = Vocab::new();
            let doc = crate::parse_document(&src, &mut vocab).expect("mixed print must parse");
            prop_assert_eq!(doc.deps.len(), rules.len());
            // Interned ids differ between each rule's private vocab and
            // the document's, so compare structure through the printed
            // form (names resolve identically on both sides).
            for (i, (dep, rule_vocab)) in rules.iter().enumerate() {
                let mut named = dep.clone();
                named.name = format!("r{i}");
                let expect = crate::print_dependency(&named, rule_vocab);
                let back = doc.deps.get(gfd_graph::GfdId::new(i));
                prop_assert_eq!(back.is_generating(), dep.is_generating(), "rule {}", i);
                prop_assert_eq!(crate::print_dependency(back, &vocab), expect, "rule {}", i);
            }
            // Fixpoint: printing the reparsed set reproduces the text.
            let printed = crate::print_dep_set(&doc.deps, &vocab);
            let mut vocab2 = Vocab::new();
            let doc2 = crate::parse_document(&printed, &mut vocab2).expect("fixpoint parse");
            prop_assert_eq!(crate::print_dep_set(&doc2.deps, &vocab2), printed);
        }
    }

    #[test]
    fn round_trip_preserves_reasoning() {
        // A sanity check that DSL round-trips preserve satisfiability.
        let mut vocab = Vocab::new();
        let src = r#"
            gfd a { pattern { node x: _ } then { x.v = 1 } }
            gfd b { pattern { node x: _ } then { x.v = 2 } }
        "#;
        let doc = crate::parse_document(src, &mut vocab).unwrap();
        assert!(!gfd_core::seq_sat(&doc.deps).is_satisfiable());
        let printed = crate::print_dep_set(&doc.deps, &vocab);
        let doc2 = crate::parse_document(&printed, &mut vocab).unwrap();
        assert!(!gfd_core::seq_sat(&doc2.deps).is_satisfiable());
    }
}
