//! Structured detection reports.

use gfd_core::{Consequence, DepSet, Literal, Operand};
use gfd_graph::{GfdId, Graph, NodeId, Vocab};
use std::fmt::Write as _;

/// One witnessed violation: a match of a rule's pattern whose premise
/// holds on the data but whose consequence does not.
///
/// For literal consequences, `failed` points at the failing literals.
/// For generating consequences, `failed` is empty — the witness of the
/// missing subgraph is the `(rule, match)` pair: no extension of `m`
/// realizes the target, and [`ViolationRecord::explain`] renders the
/// required fresh nodes, edges and assignments from the rule itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationRecord {
    /// The violated rule.
    pub gfd: GfdId,
    /// The match, indexed by pattern variable.
    pub m: Box<[NodeId]>,
    /// Indices (into a literal consequence) of the literals that fail;
    /// empty for generating consequences.
    pub failed: Vec<usize>,
}

impl ViolationRecord {
    /// Render a human-readable explanation of this violation.
    pub fn explain(&self, graph: &Graph, sigma: &DepSet, vocab: &Vocab) -> String {
        let dep = sigma.get(self.gfd);
        let mut out = String::new();
        let _ = writeln!(out, "violation of {}", dep.display(vocab));
        let _ = writeln!(out, "  match:");
        for v in dep.pattern.vars() {
            let node = self.m[v.index()];
            let _ = writeln!(
                out,
                "    {} ↦ n{} ({})",
                dep.pattern.var_name(v),
                node.index(),
                vocab.label_name(graph.label(node)),
            );
        }
        match &dep.consequence {
            Consequence::Literals(lits) => {
                for &i in &self.failed {
                    let lit = &lits[i];
                    let _ = writeln!(
                        out,
                        "  fails: {} — {}",
                        lit.display(&dep.pattern, vocab),
                        describe_failure(graph, &dep.pattern, lit, &self.m, vocab),
                    );
                }
            }
            Consequence::Generate(gen) => {
                let _ = writeln!(
                    out,
                    "  missing: no extension of the match realizes the target subgraph"
                );
                for v in gen.fresh_vars() {
                    let _ = writeln!(
                        out,
                        "    requires node {}: {}",
                        gen.pattern.var_name(v),
                        vocab.label_name(gen.pattern.label(v)),
                    );
                }
                let bound = |v: gfd_graph::VarId| -> String {
                    if v.index() < gen.shared {
                        format!(
                            "{}(n{})",
                            gen.pattern.var_name(v),
                            self.m[v.index()].index()
                        )
                    } else {
                        gen.pattern.var_name(v).to_string()
                    }
                };
                for e in gen.pattern.edges() {
                    let _ = writeln!(
                        out,
                        "    requires edge {} -{}-> {}",
                        bound(e.src),
                        vocab.label_name(e.label),
                        bound(e.dst),
                    );
                }
                for lit in &gen.attrs {
                    let _ = writeln!(out, "    requires {}", lit.display(&gen.pattern, vocab));
                }
            }
        }
        out
    }
}

/// Why a consequence literal fails on the actual attribute values.
pub(crate) fn describe_failure(
    graph: &Graph,
    pattern: &gfd_graph::Pattern,
    lit: &Literal,
    m: &[NodeId],
    vocab: &Vocab,
) -> String {
    let side = |v: gfd_graph::VarId, a: gfd_graph::AttrId| {
        let name = format!("{}.{}", pattern.var_name(v), vocab.attr_name(a));
        match graph.attr(m[v.index()], a) {
            Some(value) => format!("{name} is {value:?}"),
            None => format!("{name} is missing"),
        }
    };
    let left = side(lit.var, lit.attr);
    match &lit.rhs {
        Operand::Const(c) => format!("{left}, expected {c:?}"),
        Operand::Attr(v2, a2) => format!("{left} but {}", side(*v2, *a2)),
    }
}

/// Per-rule detection statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleStats {
    /// Matches lent to the detection action — every one satisfies the
    /// premise: the search drops a branch once a premise literal fails.
    pub matches: u64,
    /// Violations found.
    pub violations: u64,
}

/// The result of a detection run.
#[derive(Clone, Debug, Default)]
pub struct DetectionReport {
    /// All violations found (possibly truncated by the budget).
    pub violations: Vec<ViolationRecord>,
    /// Per-rule statistics, indexed by `GfdId` order of the rule set.
    pub per_rule: Vec<RuleStats>,
    /// True iff detection stopped early because the violation budget was
    /// reached.
    pub truncated: bool,
    /// Set when the sweep was cut short by the resource budget or a
    /// worker panic ([`gfd_core::Interrupt`]): the violations listed are
    /// real but the report may be incomplete.
    pub interrupted: Option<gfd_core::Interrupt>,
    /// The unified scheduler metrics (units, splits, steals, per-worker
    /// busy/idle time, wall-clock time).
    pub metrics: gfd_runtime::RunMetrics,
}

impl DetectionReport {
    /// Is the graph clean with respect to the rule set?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total [`RuleStats::matches`] — on-premise matches — of all rules.
    pub fn total_matches(&self) -> u64 {
        self.per_rule.iter().map(|s| s.matches).sum()
    }

    /// Render a compact multi-line summary (one line per dirty rule; matches are on-premise).
    pub fn summary(&self, sigma: &DepSet, vocab: &Vocab) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} violation(s) across {} rule(s){}",
            self.violations.len(),
            self.per_rule.iter().filter(|s| s.violations > 0).count(),
            if self.truncated { " [truncated]" } else { "" },
        );
        for (i, stats) in self.per_rule.iter().enumerate() {
            if stats.violations == 0 {
                continue;
            }
            let dep = sigma.get(GfdId::new(i));
            let _ = writeln!(
                out,
                "  {}: {} violation(s) / {} match(es)",
                dep.display(vocab),
                stats.violations,
                stats.matches,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{DepSet, Dependency, GenerateConsequence, Literal};
    use gfd_graph::{Pattern, Value};

    fn setup() -> (Graph, DepSet, Vocab) {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let gfd = Dependency::new("g", p, vec![], vec![Literal::eq_const(x, a, 1i64)]);
        let mut g = Graph::new();
        let n = g.add_node(t);
        g.set_attr(n, a, Value::int(7));
        (g, DepSet::from_vec(vec![gfd]), vocab)
    }

    #[test]
    fn explain_names_the_failing_literal() {
        let (g, sigma, vocab) = setup();
        let rec = ViolationRecord {
            gfd: GfdId::new(0),
            m: vec![NodeId::new(0)].into_boxed_slice(),
            failed: vec![0],
        };
        let text = rec.explain(&g, &sigma, &vocab);
        assert!(text.contains("violation of g"), "{text}");
        assert!(text.contains("x ↦ n0"), "{text}");
        assert!(text.contains("x.a is 7"), "{text}");
        assert!(text.contains("expected 1"), "{text}");
    }

    #[test]
    fn explain_reports_missing_attributes() {
        let (mut g, sigma, vocab) = setup();
        // Strip the attribute by rebuilding the node.
        g = {
            let mut g2 = Graph::new();
            g2.add_node(g.label(NodeId::new(0)));
            g2
        };
        let rec = ViolationRecord {
            gfd: GfdId::new(0),
            m: vec![NodeId::new(0)].into_boxed_slice(),
            failed: vec![0],
        };
        let text = rec.explain(&g, &sigma, &vocab);
        assert!(text.contains("x.a is missing"), "{text}");
    }

    #[test]
    fn explain_renders_missing_subgraph() {
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
        g.add_node(person);
        let rec = ViolationRecord {
            gfd: GfdId::new(0),
            m: vec![NodeId::new(0)].into_boxed_slice(),
            failed: vec![],
        };
        let text = rec.explain(&g, &sigma, &vocab);
        assert!(text.contains("missing"), "{text}");
        assert!(text.contains("requires node m: meeting"), "{text}");
        assert!(text.contains("requires edge x(n0) -attends-> m"), "{text}");
        assert!(text.contains("m.city = x.city"), "{text}");
    }

    #[test]
    fn summary_counts_dirty_rules() {
        let (_, sigma, vocab) = setup();
        let report = DetectionReport {
            interrupted: None,
            violations: vec![ViolationRecord {
                gfd: GfdId::new(0),
                m: vec![NodeId::new(0)].into_boxed_slice(),
                failed: vec![0],
            }],
            per_rule: vec![RuleStats {
                matches: 5,
                violations: 1,
            }],
            truncated: false,
            metrics: gfd_runtime::RunMetrics::default(),
        };
        let text = report.summary(&sigma, &vocab);
        assert!(text.contains("1 violation(s) across 1 rule(s)"), "{text}");
        assert!(text.contains("1 violation(s) / 5 match(es)"), "{text}");
        assert!(!report.is_clean());
        assert_eq!(report.total_matches(), 5);
    }
}
