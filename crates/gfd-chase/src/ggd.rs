//! Reasoning over generalized dependency sets (GFDs + GGDs): the routing
//! layer of the third `Goal`.
//!
//! * A **literal-only** [`DepSet`] is exactly a GFD set: [`dep_sat`] and
//!   [`dep_imp`] lower it through the [`Dependency`]↔`Gfd` shim and run
//!   the original `gfd-core` algorithms — same engine, same answers,
//!   same metrics (the "pure-GFD inputs behave identically" guarantee).
//!   A generating *candidate* ϕ against a literal Σ still runs on the
//!   unified driver via [`gfd_core::ggd_imp_with_config`]
//!   (`Goal::GgdImp`), because literal enforcement never changes the
//!   topology the realization check probes.
//! * A **mixed** set routes through the chase
//!   ([`crate::chase::dep_chase_with_config`]): scan units stay on the
//!   shared scheduler, generating consequences are applied in the serial
//!   between-rounds step, and the fresh-node budget turns potential
//!   non-termination into an explicit `Unknown` outcome.
//!
//! Satisfiability of a mixed Σ chases the disjoint union of every
//! premise pattern (the `GΣ` construction, unchanged); implication
//! chases ϕ's canonical graph `G^X_Q` and then tests ϕ's consequence —
//! literal deducibility or generating-target realization — on the chased
//! result.

use crate::chase::{dep_chase_with_config, ChaseConfig, ChaseStats, DepChaseOutcome};
use gfd_core::{
    consequence_lits_deducible, extract_model, generate_deducible, ggd_imp_with_config,
    imp_with_config, sat_with_config, CanonicalGraph, Conflict, Consequence, DepSet, Dependency,
    EqRel, ImpOutcome, ImpliedVia, Interrupt, ReasonConfig, SatOutcome,
};
use gfd_graph::{Graph, LabelIndex, NodeId};
use gfd_runtime::RunMetrics;

/// The outcome of satisfiability over a generalized dependency set.
#[derive(Debug)]
pub enum DepSatOutcome {
    /// Σ has a model (the chased graph populated through the relation).
    Satisfiable(Box<Graph>),
    /// Enforcement forces two distinct constants onto one class.
    Unsatisfiable(Conflict),
    /// The fresh-node budget ran out before a fixpoint: undecided.
    Unknown {
        /// Fresh nodes materialized before giving up.
        generated_nodes: u64,
    },
    /// The run was cut short — deadline, unit budget, or an injected
    /// fault — before a verdict: undecided.
    Interrupted(Interrupt),
}

/// Result + statistics of [`dep_sat`].
pub struct DepSatResult {
    /// The verdict.
    pub outcome: DepSatOutcome,
    /// Chase counters (all zero when the literal-only fast path ran).
    pub stats: ChaseStats,
    /// Unified scheduler metrics.
    pub metrics: RunMetrics,
}

impl DepSatResult {
    /// True iff Σ was found satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self.outcome, DepSatOutcome::Satisfiable(_))
    }

    /// True iff the run degraded before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(
            self.outcome,
            DepSatOutcome::Unknown { .. } | DepSatOutcome::Interrupted(_)
        )
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Graph> {
        match &self.outcome {
            DepSatOutcome::Satisfiable(m) => Some(m),
            _ => None,
        }
    }
}

/// Map a chase worker/TTL/budget/trace configuration onto the unified
/// driver's knobs for the literal-only fast path. The TTL passes
/// through verbatim: `Duration::ZERO` means "force splitting on every
/// unit" on both routes, matching the repo-wide convention the
/// equivalence suites rely on.
fn reason_config(cfg: &ChaseConfig) -> ReasonConfig {
    ReasonConfig {
        workers: cfg.workers.max(1),
        ttl: cfg.ttl,
        budget: cfg.budget,
        trace: cfg.trace,
        ..ReasonConfig::default()
    }
}

/// Check satisfiability of a generalized Σ with the default
/// configuration.
pub fn dep_sat(deps: &DepSet) -> DepSatResult {
    dep_sat_with_config(deps, &ChaseConfig::default())
}

/// Check satisfiability of a generalized Σ: literal-only sets run the
/// original `SeqSat`/`ParSat` driver, mixed sets the generating chase
/// over `GΣ`.
pub fn dep_sat_with_config(deps: &DepSet, config: &ChaseConfig) -> DepSatResult {
    if let Some(gfds) = deps.to_gfds() {
        let r = sat_with_config(&gfds, &reason_config(config));
        let outcome = match r.outcome {
            SatOutcome::Satisfiable(m) => DepSatOutcome::Satisfiable(m),
            SatOutcome::Unsatisfiable(c) => DepSatOutcome::Unsatisfiable(c),
            SatOutcome::Unknown(i) => DepSatOutcome::Interrupted(i),
        };
        return DepSatResult {
            outcome,
            stats: ChaseStats::default(),
            metrics: r.stats,
        };
    }

    // GΣ: the disjoint union of every premise pattern, exactly as for
    // GFDs — generating rules contribute their premise side only; their
    // targets are materialized by the chase itself.
    let mut graph = Graph::new();
    for (_, dep) in deps.iter() {
        graph.append_disjoint(&dep.pattern.to_graph());
    }
    let (outcome, stats, metrics) = dep_chase_with_config(deps, graph, EqRel::new(), config);
    let outcome = match outcome {
        DepChaseOutcome::Fixpoint { graph, mut eq } => {
            DepSatOutcome::Satisfiable(Box::new(extract_model(&graph, &mut eq)))
        }
        DepChaseOutcome::Conflict(c) => DepSatOutcome::Unsatisfiable(c),
        DepChaseOutcome::BudgetExhausted { generated_nodes } => {
            DepSatOutcome::Unknown { generated_nodes }
        }
        DepChaseOutcome::Interrupted(i) => DepSatOutcome::Interrupted(i),
    };
    DepSatResult {
        outcome,
        stats,
        metrics,
    }
}

/// The outcome of implication over a generalized dependency set.
#[derive(Debug)]
pub enum DepImpOutcome {
    /// `Σ |= ϕ`.
    Implied(ImpliedVia),
    /// `Σ 6|= ϕ` under the chase semantics.
    NotImplied,
    /// The fresh-node budget ran out before a verdict.
    Unknown {
        /// Fresh nodes materialized before giving up.
        generated_nodes: u64,
    },
    /// The run was cut short — deadline, unit budget, or an injected
    /// fault — before a verdict: undecided.
    Interrupted(Interrupt),
}

/// Result + statistics of [`dep_imp`].
pub struct DepImpResult {
    /// The verdict.
    pub outcome: DepImpOutcome,
    /// Chase counters (all zero when the driver fast path ran).
    pub stats: ChaseStats,
    /// Unified scheduler metrics.
    pub metrics: RunMetrics,
}

impl DepImpResult {
    /// True iff `Σ |= ϕ`.
    pub fn is_implied(&self) -> bool {
        matches!(self.outcome, DepImpOutcome::Implied(_))
    }

    /// True iff the run degraded before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(
            self.outcome,
            DepImpOutcome::Unknown { .. } | DepImpOutcome::Interrupted(_)
        )
    }
}

/// Check `Σ |= ϕ` over generalized dependencies with the default
/// configuration.
pub fn dep_imp(deps: &DepSet, phi: &Dependency) -> DepImpResult {
    dep_imp_with_config(deps, phi, &ChaseConfig::default())
}

/// Check `Σ |= ϕ` over generalized dependencies: when Σ is literal the
/// unified driver decides it (including generating candidates, via
/// `Goal::GgdImp`); a mixed Σ chases `G^X_Q` to fixpoint and tests ϕ's
/// consequence on the result.
pub fn dep_imp_with_config(deps: &DepSet, phi: &Dependency, config: &ChaseConfig) -> DepImpResult {
    if let Some(gfds) = deps.to_gfds() {
        let r = match phi.as_gfd() {
            Some(gfd) => imp_with_config(&gfds, &gfd, &reason_config(config)),
            None => ggd_imp_with_config(&gfds, phi, &reason_config(config)),
        };
        let outcome = match r.outcome {
            ImpOutcome::Implied(via) => DepImpOutcome::Implied(via),
            ImpOutcome::NotImplied => DepImpOutcome::NotImplied,
            ImpOutcome::Unknown(i) => DepImpOutcome::Interrupted(i),
        };
        return DepImpResult {
            outcome,
            stats: ChaseStats::default(),
            metrics: r.stats,
        };
    }

    let zero = |outcome: DepImpOutcome| DepImpResult {
        outcome,
        stats: ChaseStats::default(),
        metrics: RunMetrics {
            workers: config.workers.max(1),
            ..Default::default()
        },
    };
    // Trivial short-circuits mirror `imp_shortcuts`.
    if matches!(&phi.consequence, Consequence::Literals(lits) if lits.is_empty()) {
        return zero(DepImpOutcome::Implied(ImpliedVia::Consequence));
    }
    let (canon, eqx) = match CanonicalGraph::for_premise(&phi.pattern, &phi.premise) {
        Ok(pair) => pair,
        Err(_) => return zero(DepImpOutcome::Implied(ImpliedVia::PremiseInconsistent)),
    };
    let identity: Vec<NodeId> = (0..phi.pattern.node_count()).map(NodeId::new).collect();
    {
        let mut probe = eqx.clone();
        if consequence_holds_on(&mut probe, &canon.index, phi, &identity) {
            return zero(DepImpOutcome::Implied(ImpliedVia::Consequence));
        }
    }

    let (outcome, stats, metrics) = dep_chase_with_config(deps, canon.graph.clone(), eqx, config);
    let outcome = match outcome {
        DepChaseOutcome::Conflict(c) => DepImpOutcome::Implied(ImpliedVia::Conflict(c)),
        DepChaseOutcome::BudgetExhausted { generated_nodes } => {
            DepImpOutcome::Unknown { generated_nodes }
        }
        DepChaseOutcome::Interrupted(i) => DepImpOutcome::Interrupted(i),
        DepChaseOutcome::Fixpoint { graph, mut eq } => {
            let index = LabelIndex::build(&graph);
            if consequence_holds_on(&mut eq, &index, phi, &identity) {
                DepImpOutcome::Implied(ImpliedVia::Consequence)
            } else {
                DepImpOutcome::NotImplied
            }
        }
    };
    DepImpResult {
        outcome,
        stats,
        metrics,
    }
}

/// Does ϕ's consequence hold at the identity match under `eq` over the
/// indexed graph — literal deducibility or generating-target
/// realization?
fn consequence_holds_on<I: gfd_graph::MatchIndex>(
    eq: &mut EqRel,
    index: &I,
    phi: &Dependency,
    identity: &[NodeId],
) -> bool {
    match &phi.consequence {
        Consequence::Literals(lits) => consequence_lits_deducible(eq, lits),
        Consequence::Generate(gen) => generate_deducible(eq, index, gen, identity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{seq_imp, seq_sat, GenerateConsequence, Gfd, GfdSet, Literal};
    use gfd_graph::{Pattern, ValueId, VarId, Vocab};

    fn unary(vocab: &mut Vocab, label: &str) -> Pattern {
        let mut p = Pattern::new();
        p.add_node(vocab.label(label), "x");
        p
    }

    /// tier0 → CREATE tier1 child with a1 = 1; plus a literal rule off
    /// the generated attribute.
    fn chain_deps(vocab: &mut Vocab) -> DepSet {
        let t0 = unary(vocab, "tier0");
        let a1 = vocab.attr("a1");
        let b = vocab.attr("b");
        let mut gen = GenerateConsequence::over(&t0);
        let y = gen.add_fresh(vocab.label("tier1"), "y");
        gen.add_edge(VarId::new(0), vocab.label("next"), y);
        gen.push_attr(Literal::eq_const(y, a1, 1i64));
        let ggd = Dependency::new("grow", t0, vec![], Consequence::Generate(gen));
        let t1 = unary(vocab, "tier1");
        let lit = Dependency::from_gfd(Gfd::new(
            "mark",
            t1,
            vec![Literal::eq_const(VarId::new(0), a1, 1i64)],
            vec![Literal::eq_const(VarId::new(0), b, 7i64)],
        ));
        DepSet::from_vec(vec![ggd, lit])
    }

    #[test]
    fn literal_only_sets_route_to_the_driver() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let x = VarId::new(0);
        let mk = |vocab: &mut Vocab, v: i64| {
            Gfd::new(
                "g",
                unary(vocab, "t"),
                vec![],
                vec![Literal::eq_const(x, a, v)],
            )
        };
        let unsat = GfdSet::from_vec(vec![mk(&mut vocab, 0), mk(&mut vocab, 1)]);
        let deps = DepSet::from_gfds(unsat.clone());
        let r = dep_sat(&deps);
        assert!(!r.is_satisfiable());
        assert!(!seq_sat(&unsat).is_satisfiable());
        assert_eq!(r.stats.rounds, 0, "fast path must not chase");

        let sat = GfdSet::from_vec(vec![mk(&mut vocab, 0)]);
        let deps = DepSet::from_gfds(sat.clone());
        let r = dep_sat(&deps);
        assert!(r.is_satisfiable());
        let phi = sat.as_slice()[0].clone();
        let ri = dep_imp(&deps, &Dependency::from_gfd(phi.clone()));
        assert_eq!(ri.is_implied(), seq_imp(&sat, &phi).is_implied());
    }

    /// The literal fast path must carry the chase config's tracing through
    /// to the driver it routes to, at every worker count.
    #[test]
    fn literal_fast_path_keeps_tracing() {
        use gfd_runtime::{EventKind, TraceSpec};
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let seed = Gfd::new(
            "seed",
            unary(&mut vocab, "t"),
            vec![],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        let phi = Gfd::new(
            "phi",
            unary(&mut vocab, "t"),
            vec![Literal::eq_const(x, b, 2i64)],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        let deps = DepSet::from_gfds(GfdSet::from_vec(vec![seed]));
        let rule_evals = |metrics: &RunMetrics| {
            let evals = metrics.trace.events.iter();
            evals.filter(|e| e.kind == EventKind::RuleEval).count()
        };
        for workers in [1usize, 2] {
            let cfg = ChaseConfig {
                trace: TraceSpec::enabled(),
                ..ChaseConfig::with_workers(workers)
            };
            let sat = dep_sat_with_config(&deps, &cfg);
            assert!(sat.is_satisfiable());
            assert!(rule_evals(&sat.metrics) > 0, "dep_sat, workers={workers}");
            let imp = dep_imp_with_config(&deps, &Dependency::from_gfd(phi.clone()), &cfg);
            assert!(imp.is_implied());
            assert_eq!(imp.stats.rounds, 0, "literal Σ must use the driver path");
            assert!(rule_evals(&imp.metrics) > 0, "dep_imp, workers={workers}");
        }
    }

    #[test]
    fn generating_chase_grows_and_derives() {
        let mut vocab = Vocab::new();
        let deps = chain_deps(&mut vocab);
        let r = dep_sat(&deps);
        assert!(r.is_satisfiable(), "chain workload must be satisfiable");
        assert!(r.stats.generated_nodes >= 1, "{:?}", r.stats);
        let model = r.model().unwrap();
        // One tier0 premise copy + one tier1 premise copy + the generated
        // tier1 child.
        assert_eq!(model.node_count(), 3);
        assert!(model.edge_count() >= 1);
        // The generated child got a1 = 1, which fired the literal rule to
        // b = 7 on it — visible in the extracted model.
        let a1 = vocab.attr("a1");
        let b = vocab.attr("b");
        let derived = model.nodes().any(|n| {
            model.attr(n, a1) == Some(ValueId::of(1i64)) && model.attr(n, b) == Some(ValueId::of(7i64))
        });
        assert!(derived, "generated node must cascade into literal rules");
    }

    #[test]
    fn generated_attr_conflicts_make_unsat() {
        let mut vocab = Vocab::new();
        let mut deps = chain_deps(&mut vocab);
        let a1 = vocab.attr("a1");
        deps.push(Dependency::from_gfd(Gfd::new(
            "deny",
            unary(&mut vocab, "tier1"),
            vec![],
            vec![Literal::eq_const(VarId::new(0), a1, -1i64)],
        )));
        let r = dep_sat(&deps);
        assert!(
            matches!(r.outcome, DepSatOutcome::Unsatisfiable(_)),
            "generated a1=1 must clash with the denial's a1=-1"
        );
    }

    #[test]
    fn runaway_generation_hits_the_budget() {
        let mut vocab = Vocab::new();
        // person → CREATE person: no finite fixpoint.
        let p = unary(&mut vocab, "person");
        let mut gen = GenerateConsequence::over(&p);
        let y = gen.add_fresh(vocab.label("person"), "y");
        gen.add_edge(VarId::new(0), vocab.label("parentOf"), y);
        let deps = DepSet::from_vec(vec![Dependency::new(
            "spawn",
            p,
            vec![],
            Consequence::Generate(gen),
        )]);
        let cfg = ChaseConfig {
            max_generated_nodes: 50,
            ..ChaseConfig::default()
        };
        let r = dep_sat_with_config(&deps, &cfg);
        assert!(r.is_unknown(), "must give up, not loop");
        assert!(matches!(
            r.outcome,
            DepSatOutcome::Unknown { generated_nodes } if generated_nodes > 50
        ));
    }

    #[test]
    fn ggd_implication_by_literal_sigma_uses_the_driver() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        // ϕ: pattern x -e-> y, CREATE nothing structural but require
        // y.a = 1 as a generated assignment. Σ: ∅ → y.a = 1 over the same
        // shape.
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        let mut gen = GenerateConsequence::over(&p);
        gen.push_attr(Literal::eq_const(y, a, 1i64));
        let phi = Dependency::new("target", p.clone(), vec![], Consequence::Generate(gen));
        let sigma_rule = Gfd::new("seed", p, vec![], vec![Literal::eq_const(y, a, 1i64)]);
        let deps = DepSet::from_gfds(GfdSet::from_vec(vec![sigma_rule]));
        let r = dep_imp(&deps, &phi);
        assert!(r.is_implied(), "attr-only target forced by Σ");
        assert_eq!(r.stats.rounds, 0, "literal Σ must use the driver path");

        // Without Σ it is not implied.
        let r = dep_imp(&DepSet::new(), &phi);
        assert!(!r.is_implied());
    }

    #[test]
    fn ggd_implication_by_generating_sigma_uses_the_chase() {
        let mut vocab = Vocab::new();
        let deps = chain_deps(&mut vocab);
        // ϕ: every tier0 node has a generated tier1 child over `next`.
        let t0 = unary(&mut vocab, "tier0");
        let mut gen = GenerateConsequence::over(&t0);
        let y = gen.add_fresh(vocab.label("tier1"), "y");
        gen.add_edge(VarId::new(0), vocab.label("next"), y);
        let phi = Dependency::new("has_child", t0, vec![], Consequence::Generate(gen));
        let r = dep_imp(&deps, &phi);
        assert!(r.is_implied(), "the chain GGD creates exactly that child");
        assert!(r.stats.rounds > 0, "mixed Σ must chase");

        // A child over a different edge label is not implied.
        let t0 = unary(&mut vocab, "tier0");
        let mut gen = GenerateConsequence::over(&t0);
        let y = gen.add_fresh(vocab.label("tier1"), "y");
        gen.add_edge(VarId::new(0), vocab.label("unrelated"), y);
        let phi = Dependency::new("wrong_edge", t0, vec![], Consequence::Generate(gen));
        assert!(!dep_imp(&deps, &phi).is_implied());
    }

    #[test]
    fn chase_results_are_worker_invariant() {
        let mut vocab = Vocab::new();
        let deps = chain_deps(&mut vocab);
        let base = dep_sat(&deps);
        let base_model = base.model().unwrap();
        for p in [2usize, 8] {
            let cfg = ChaseConfig {
                workers: p,
                ttl: std::time::Duration::ZERO,
                batch: 1,
                ..ChaseConfig::default()
            };
            let r = dep_sat_with_config(&deps, &cfg);
            assert!(r.is_satisfiable(), "p={p}");
            let m = r.model().unwrap();
            assert_eq!(m.node_count(), base_model.node_count(), "p={p}");
            assert_eq!(m.edge_count(), base_model.edge_count(), "p={p}");
        }
    }
}
