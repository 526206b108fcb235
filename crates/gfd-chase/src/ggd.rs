//! Reasoning over dependency sets that may generate (GFDs + GGDs): the
//! routing layer.
//!
//! * A **literal-only** [`DepSet`] is exactly a GFD set: [`dep_sat`] and
//!   [`dep_imp`] hand it, as it is, to the `gfd-core` enforcement driver
//!   ([`gfd_core::sat_with_config`] / [`gfd_core::imp_with_config`]) —
//!   same engine, same answers, same metrics. A generating *candidate* ϕ
//!   against a literal Σ runs there too, because literal enforcement never
//!   changes the topology the realization check probes.
//! * A set with **generating rules** — which that driver refuses — routes
//!   through the chase ([`crate::chase::dep_chase_with_config`]): scan
//!   units stay on the shared scheduler, generating consequences are
//!   applied in the serial between-rounds step, and the fresh-node budget
//!   turns potential non-termination into an `Unknown(FreshNodes)` verdict.
//!
//! Satisfiability of a mixed Σ chases the disjoint union of every
//! premise pattern (the `GΣ` construction, unchanged: [`chase_sat_with_config`]
//! takes any Σ); implication
//! chases ϕ's canonical graph `G^X_Q` and then tests ϕ's consequence —
//! literal deducibility or generating-target realization — on the chased
//! result ([`chase_imp_with_config`] likewise takes any Σ).

use crate::chase::{ChaseConfig, ChaseStats};
use crate::imp_rdf::chase_imp_with_config;
use crate::sat_chase::chase_sat_with_config;
use gfd_core::{
    imp_with_config, sat_with_config, DepSet, Dependency, ImpOutcome, ReasonConfig, SatOutcome,
};
use gfd_graph::Graph;
use gfd_runtime::RunMetrics;

/// The name gfdbench matches satisfiability verdicts by.
pub type DepSatOutcome = SatOutcome; // gfdbench-pin

/// Result + statistics of satisfiability over a dependency set that may
/// generate ([`dep_sat`], [`chase_sat_with_config`]).
#[derive(Debug)]
pub struct DepSatResult {
    /// The verdict.
    pub outcome: SatOutcome,
    /// Chase counters (all zero when the literal-only fast path ran).
    pub stats: ChaseStats,
    /// Unified scheduler metrics.
    pub metrics: RunMetrics,
}

impl DepSatResult {
    /// True iff Σ was found satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self.outcome, SatOutcome::Satisfiable(_))
    }

    /// True iff the run degraded before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self.outcome, SatOutcome::Unknown(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Graph> {
        match &self.outcome {
            SatOutcome::Satisfiable(m) => Some(m),
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
        ttl: Some(cfg.ttl),
        budget: cfg.budget,
        trace: cfg.trace,
        ..ReasonConfig::default()
    }
}

/// Check satisfiability of Σ with the default configuration.
pub fn dep_sat(deps: &DepSet) -> DepSatResult {
    dep_sat_with_config(deps, &ChaseConfig::default())
}

/// Check satisfiability of Σ: literal-only sets run the `SeqSat`/`ParSat`
/// driver, mixed sets the generating chase over `GΣ`
/// ([`chase_sat_with_config`]).
pub fn dep_sat_with_config(deps: &DepSet, config: &ChaseConfig) -> DepSatResult {
    if deps.has_generating() {
        return chase_sat_with_config(deps, config);
    }
    let r = sat_with_config(deps, &reason_config(config));
    DepSatResult {
        outcome: r.outcome,
        stats: ChaseStats::default(),
        metrics: r.stats,
    }
}

/// Result + statistics of implication over a dependency set that may
/// generate ([`dep_imp`], [`chase_imp_with_config`]).
#[derive(Debug)]
pub struct DepImpResult {
    /// The verdict.
    pub outcome: ImpOutcome,
    /// Chase counters (all zero when the driver ran, or a trivial case
    /// decided the question before any chase).
    pub stats: ChaseStats,
    /// Unified scheduler metrics.
    pub metrics: RunMetrics,
}

impl DepImpResult {
    /// True iff `Σ |= ϕ`.
    pub fn is_implied(&self) -> bool {
        matches!(self.outcome, ImpOutcome::Implied(_))
    }

    /// True iff the run degraded before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self.outcome, ImpOutcome::Unknown(_))
    }
}

/// Check `Σ |= ϕ` with the default configuration.
pub fn dep_imp(deps: &DepSet, phi: &Dependency) -> DepImpResult {
    dep_imp_with_config(deps, phi, &ChaseConfig::default())
}

/// Check `Σ |= ϕ`: when Σ is literal the enforcement driver decides it
/// (generating candidates included); a mixed Σ chases `G^X_Q` to fixpoint
/// and tests ϕ's consequence on the result.
pub fn dep_imp_with_config(deps: &DepSet, phi: &Dependency, config: &ChaseConfig) -> DepImpResult {
    if deps.has_generating() {
        return chase_imp_with_config(deps, phi, config);
    }
    let r = imp_with_config(deps, phi, &reason_config(config));
    DepImpResult {
        outcome: r.outcome,
        stats: ChaseStats::default(),
        metrics: r.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{seq_imp, seq_sat, GenerateConsequence, Interrupt, Literal};
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
        let ggd = Dependency::new("grow", t0, vec![], gen);
        let t1 = unary(vocab, "tier1");
        let lit = Dependency::new(
            "mark",
            t1,
            vec![Literal::eq_const(VarId::new(0), a1, 1i64)],
            vec![Literal::eq_const(VarId::new(0), b, 7i64)],
        );
        DepSet::from_vec(vec![ggd, lit])
    }

    #[test]
    fn literal_only_sets_route_to_the_driver() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let x = VarId::new(0);
        let mk = |vocab: &mut Vocab, v: i64| {
            Dependency::new(
                "g",
                unary(vocab, "t"),
                vec![],
                vec![Literal::eq_const(x, a, v)],
            )
        };
        let unsat = DepSet::from_vec(vec![mk(&mut vocab, 0), mk(&mut vocab, 1)]);
        let r = dep_sat(&unsat);
        assert!(!r.is_satisfiable());
        assert!(!seq_sat(&unsat).is_satisfiable());
        assert_eq!(r.stats.rounds, 0, "fast path must not chase");

        let sat = DepSet::from_vec(vec![mk(&mut vocab, 0)]);
        let r = dep_sat(&sat);
        assert!(r.is_satisfiable());
        let phi = &sat.as_slice()[0];
        let ri = dep_imp(&sat, phi);
        assert_eq!(ri.is_implied(), seq_imp(&sat, phi).is_implied());
    }

    /// The enforcement driver refuses a Σ with a generating rule at its
    /// door, with the documented message; the routing doors answer the
    /// same Σ through the chase.
    #[test]
    fn generating_sigma_is_refused_by_the_driver_and_chased_by_the_router() {
        let mut vocab = Vocab::new();
        let deps = chain_deps(&mut vocab);
        let phi = deps.as_slice()[1].clone();
        let cfg = ReasonConfig::with_workers(1);
        let refusal = |run: &(dyn Fn() + std::panic::RefUnwindSafe)| {
            let payload = std::panic::catch_unwind(run).expect_err("the driver must refuse");
            let message = payload
                .downcast_ref::<&str>()
                .expect("a literal assert message");
            assert!(
                message.contains("admits literal consequences only"),
                "{message}"
            );
        };
        refusal(&|| drop(sat_with_config(&deps, &cfg)));
        refusal(&|| drop(imp_with_config(&deps, &phi, &cfg)));

        let sat = dep_sat_with_config(&deps, &ChaseConfig::with_workers(1));
        assert!(sat.is_satisfiable());
        assert!(sat.stats.rounds > 0, "a generating Σ is chased");
        let imp = dep_imp_with_config(&deps, &phi, &ChaseConfig::with_workers(1));
        assert!(!imp.is_unknown());
        assert!(imp.stats.rounds > 0, "a generating Σ is chased");
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
        let seed = Dependency::new(
            "seed",
            unary(&mut vocab, "t"),
            vec![],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        let phi = Dependency::new(
            "phi",
            unary(&mut vocab, "t"),
            vec![Literal::eq_const(x, b, 2i64)],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        let deps = DepSet::from_vec(vec![seed]);
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
            let imp = dep_imp_with_config(&deps, &phi, &cfg);
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
            model.attr(n, a1) == Some(ValueId::of(1i64))
                && model.attr(n, b) == Some(ValueId::of(7i64))
        });
        assert!(derived, "generated node must cascade into literal rules");
    }

    #[test]
    fn generated_attr_conflicts_make_unsat() {
        let mut vocab = Vocab::new();
        let mut deps = chain_deps(&mut vocab);
        let a1 = vocab.attr("a1");
        deps.push(Dependency::new(
            "deny",
            unary(&mut vocab, "tier1"),
            vec![],
            vec![Literal::eq_const(VarId::new(0), a1, -1i64)],
        ));
        let r = dep_sat(&deps);
        assert!(
            matches!(r.outcome, SatOutcome::Unsatisfiable(_)),
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
        let deps = DepSet::from_vec(vec![Dependency::new("spawn", p, vec![], gen)]);
        let cfg = ChaseConfig {
            max_generated_nodes: 50,
            ..ChaseConfig::default()
        };
        let r = dep_sat_with_config(&deps, &cfg);
        assert!(
            matches!(r.outcome, SatOutcome::Unknown(Interrupt::FreshNodes)),
            "must give up, not loop"
        );
        assert!(r.stats.generated_nodes > 50, "{:?}", r.stats);
        // Implication chases ϕ's canonical graph into the same budget.
        let a = vocab.attr("a");
        let phi = Dependency::new(
            "q",
            unary(&mut vocab, "person"),
            vec![],
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
        );
        let r = dep_imp_with_config(&deps, &phi, &cfg);
        assert!(matches!(
            r.outcome,
            ImpOutcome::Unknown(Interrupt::FreshNodes)
        ));
        assert!(r.stats.generated_nodes > 50, "{:?}", r.stats);
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
        let phi = Dependency::new("target", p.clone(), vec![], gen);
        let sigma_rule = Dependency::new("seed", p, vec![], vec![Literal::eq_const(y, a, 1i64)]);
        let deps = DepSet::from_vec(vec![sigma_rule]);
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
        let phi = Dependency::new("has_child", t0, vec![], gen);
        let r = dep_imp(&deps, &phi);
        assert!(r.is_implied(), "the chain GGD creates exactly that child");
        assert!(r.stats.rounds > 0, "mixed Σ must chase");

        // A child over a different edge label is not implied.
        let t0 = unary(&mut vocab, "tier0");
        let mut gen = GenerateConsequence::over(&t0);
        let y = gen.add_fresh(vocab.label("tier1"), "y");
        gen.add_edge(VarId::new(0), vocab.label("unrelated"), y);
        let phi = Dependency::new("wrong_edge", t0, vec![], gen);
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
