//! The parallel detection engine.
//!
//! Detection runs on the same search-unit engine as reasoning
//! ([`gfd_core::SearchTask`] on the shared `gfd-runtime` scheduler): the
//! same dispatch, per-worker `HomSearch` reuse, TTL straggler splitting,
//! stop-flag early termination and [`RunMetrics`]. What is detection's own
//! is its match-action — the premise checked on the *data* graph as the
//! search binds its variables (the paper's `HomMatch ∥ CheckAttr`), the
//! consequence on the matches that survive, and a global violation budget —
//! and that rules sharing a pattern share a search: a unit runs for a
//! [`Group`](crate::units::Group), and each member keeps the branches its
//! own premise admits.

use crate::report::{DetectionReport, RuleStats, ViolationRecord};
use crate::units::{initial_units, RulePlans};
use gfd_core::validate::{literal_holds, premise_holds};
use gfd_core::{run_task, Budget, Consequence, DepSet, MatchAction, Members, SearchTask, WorkUnit};
use gfd_graph::{GfdId, Graph, LabelIndex, MatchIndex, NodeId, Pattern};
use gfd_match::MatchPlan;
use gfd_runtime::{RunMetrics, TraceSpec};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a detection run.
#[derive(Clone, Debug)]
pub struct DetectConfig {
    /// Worker threads (`p` in the paper). 0 means "number of CPUs".
    pub workers: usize,
    /// Straggler threshold: a unit running longer than this — counted from
    /// its first poll, across every pivot of its batch — is split: its
    /// current search's untried branches and its batch's untried pivots
    /// are offered to other workers (§V, Example 6).
    pub ttl: Duration,
    /// Stop after this many violations (`usize::MAX` = find all).
    pub max_violations: usize,
    /// Pivot candidates per initial work unit.
    pub batch_size: usize,
    /// Unified resource budget (DESIGN.md §11.2): deadline and unit cap
    /// enforced by the scheduler at unit boundaries. Exhaustion yields a
    /// partial report flagged with [`DetectionReport::interrupted`] — the
    /// violations found so far are real, the sweep just did not finish.
    pub budget: Budget,
    /// Structured tracing (DESIGN.md §13): per-rule eval spans plus the
    /// scheduler's own steal/split/budget events, returned on
    /// `RunMetrics::trace`. Off by default.
    pub trace: TraceSpec,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            workers: 0,
            ttl: Duration::from_millis(100),
            max_violations: usize::MAX,
            batch_size: 1024,
            budget: Budget::unlimited(),
            trace: TraceSpec::disabled(),
        }
    }
}

impl DetectConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        DetectConfig {
            workers,
            ..Default::default()
        }
    }

    /// Attach a unified resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }
}

/// Detection's match-action (see [`gfd_core::engine`]): check each match
/// against the rules of its unit's group on the data graph. Generic over
/// the [`MatchIndex`] like the matcher itself: the static pipeline passes a
/// [`LabelIndex`], the incremental engine a `gfd_graph::DeltaIndex`.
struct DetectAction<'a, I: MatchIndex> {
    graph: &'a Graph,
    index: &'a I,
    sigma: &'a DepSet,
    plans: &'a RulePlans,
    /// Violations found so far (global budget counter).
    found: AtomicUsize,
    stop: &'a AtomicBool,
    max_violations: usize,
}

impl<I: MatchIndex> DetectAction<'_, I> {
    /// Reserve one violation slot; returns false when the budget is spent.
    fn reserve(&self) -> bool {
        let prev = self.found.fetch_add(1, Ordering::Relaxed);
        if prev >= self.max_violations {
            self.found.fetch_sub(1, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
            return false;
        }
        if prev + 1 == self.max_violations {
            self.stop.store(true, Ordering::Relaxed);
        }
        true
    }

    /// Check one on-premise match of `rule` against its consequence,
    /// recording a violation if that fails on the data: for literal
    /// consequences some literal fails on the concrete values; for
    /// generating consequences no extension of the match realizes the
    /// target subgraph (the witness is the `(rule, match)` pair itself —
    /// the report renders what is missing from it).
    fn check(&self, local: &mut Local, rule: GfdId, m: &[NodeId]) -> ControlFlow<()> {
        let dep = self.sigma.get(rule);
        debug_assert!(premise_holds(self.graph, dep, m), "admitted off-premise");
        local.per_rule[rule.index()].matches += 1;
        let (holds, failed) = match &dep.consequence {
            Consequence::Literals(lits) => {
                let failed: Vec<usize> = (0..lits.len())
                    .filter(|&i| !literal_holds(self.graph, &lits[i], m))
                    .collect();
                (failed.is_empty(), failed)
            }
            Consequence::Generate(gen) => {
                let mut attr_ok = |lit: &_, asn: &_| literal_holds(self.graph, lit, asn);
                (
                    gen.realized(self.index, m, &mut Vec::new(), &mut attr_ok),
                    Vec::new(),
                )
            }
        };
        if holds {
            return ControlFlow::Continue(());
        }
        if !self.reserve() {
            return ControlFlow::Break(());
        }
        local.per_rule[rule.index()].violations += 1;
        local.violations.push(ViolationRecord {
            gfd: rule,
            m: m.into(),
            failed,
        });
        if self.stop.load(Ordering::Relaxed) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Thread-local accumulation, merged after the scheduler joins.
struct Local {
    violations: Vec<ViolationRecord>,
    per_rule: Vec<RuleStats>,
}

impl<'a, I: MatchIndex> MatchAction<'a> for DetectAction<'a, I> {
    type Worker = Local;

    fn worker(&self, _id: usize) -> Local {
        Local {
            violations: Vec::new(),
            per_rule: vec![RuleStats::default(); self.sigma.len()],
        }
    }

    fn rule(&self, leader: GfdId) -> (&'a Pattern, &'a MatchPlan) {
        (
            &self.sigma.get(leader).pattern,
            &self.plans.group(leader).plan,
        )
    }

    fn group(&self, leader: GfdId) -> Members {
        self.plans.group(leader).all()
    }

    fn before_unit(&self, _local: &mut Local) -> ControlFlow<()> {
        if self.found.load(Ordering::Relaxed) < self.max_violations {
            ControlFlow::Continue(())
        } else {
            self.stop.store(true, Ordering::Relaxed);
            ControlFlow::Break(())
        }
    }

    /// The members' premises, pushed into the search: a member drops out
    /// of the branch once one of its literals fails, and a violation needs
    /// the whole premise to hold.
    fn admit(&self, leader: GfdId, pos: usize, partial: &[NodeId], alive: Members) -> Members {
        self.plans
            .group(leader)
            .admit(self.graph, pos, partial, alive)
    }

    /// Check one match against the consequence of each member it is alive
    /// for (on-premise: `admit` dropped every other member).
    fn on_match(
        &self,
        local: &mut Local,
        leader: GfdId,
        alive: Members,
        m: &[NodeId],
    ) -> ControlFlow<()> {
        for rule in self.plans.group(leader).members_in(alive) {
            self.check(local, rule, m)?;
        }
        ControlFlow::Continue(())
    }

    fn fired(&self, local: &Local, leader: GfdId) -> u64 {
        let members = &self.plans.group(leader).members;
        members
            .iter()
            .map(|r| local.per_rule[r.index()].violations)
            .sum()
    }
}

/// Detect violations of a dependency set (GFDs and GGDs, mixed freely) in
/// `graph` on the shared work-stealing scheduler.
pub fn detect(graph: &Graph, sigma: &DepSet, config: &DetectConfig) -> DetectionReport {
    let start = Instant::now();
    let index = LabelIndex::build(graph);
    let plans = RulePlans::build(sigma, &index);
    let units = initial_units(sigma, &index, &plans, config.batch_size);
    let mut report = detect_units(graph, &index, sigma, &plans, units, config);
    // `elapsed` covers the whole run including the freeze and plan
    // build, as it always has; detect_units alone times only dispatch.
    report.metrics.elapsed = start.elapsed();
    report
}

/// Run an explicit unit queue against an explicit index on the shared
/// scheduler — the entry point the incremental engine uses to re-check
/// only the dirty-frontier pivots over a delta-CSR overlay. [`detect`]
/// is the "all pivots, fresh [`LabelIndex`]" instantiation.
pub fn detect_units<I: MatchIndex>(
    graph: &Graph,
    index: &I,
    sigma: &DepSet,
    plans: &RulePlans,
    units: Vec<WorkUnit>,
    config: &DetectConfig,
) -> DetectionReport {
    let start = Instant::now();
    let workers = config.effective_workers();
    let stop = AtomicBool::new(false);
    let task = SearchTask {
        graph,
        index,
        ttl: Some(config.ttl),
        stop: &stop,
        action: DetectAction {
            graph,
            index,
            sigma,
            plans,
            found: AtomicUsize::new(0),
            stop: &stop,
            max_violations: config.max_violations,
        },
    };

    let mut metrics = RunMetrics {
        workers,
        ..Default::default()
    };
    let run = run_task(
        &task,
        units,
        workers,
        &stop,
        &config.budget,
        config.trace,
        &mut metrics,
    );
    config.budget.stamp(start, &mut metrics);
    // Merge the per-worker accumulations.
    let mut violations = Vec::new();
    let mut per_rule = vec![RuleStats::default(); sigma.len()];
    for local in run.workers.into_iter().map(|w| w.state) {
        violations.extend(local.violations);
        for (total, part) in per_rule.iter_mut().zip(&local.per_rule) {
            total.matches += part.matches;
            total.violations += part.violations;
        }
    }
    metrics.matches = per_rule.iter().map(|s| s.matches).sum();
    // Deterministic order regardless of worker interleaving.
    violations.sort_by(|a, b| (a.gfd, &a.m).cmp(&(b.gfd, &b.m)));
    let truncated = violations.len() >= config.max_violations;
    metrics.early_terminated = truncated || run.interrupt.is_some();
    DetectionReport {
        violations,
        per_rule,
        truncated,
        interrupted: run.interrupt,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{Dependency, Literal};
    use gfd_graph::{Pattern, Value, Vocab};

    /// A chain graph t0 → t1 → … with alternating attribute values, plus a
    /// rule requiring equal values across each edge: every edge between a
    /// mismatched pair is a violation.
    fn chain_setup(n: usize) -> (Graph, DepSet, Vocab) {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let mut g = Graph::new();
        let mut prev = None;
        for i in 0..n {
            let node = g.add_node(t);
            g.set_attr(node, a, Value::int((i % 2) as i64));
            if let Some(p) = prev {
                g.add_edge(p, e, node);
            }
            prev = Some(node);
        }
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        let gfd = Dependency::new(
            "eq-across-edge",
            p,
            vec![],
            vec![Literal::eq_attr(x, a, y, a)],
        );
        (g, DepSet::from_vec(vec![gfd]), vocab)
    }

    #[test]
    fn finds_every_violation_in_a_chain() {
        let (g, sigma, _) = chain_setup(50);
        let report = detect(&g, &sigma, &DetectConfig::with_workers(4));
        // All 49 edges connect a 0-node to a 1-node.
        assert_eq!(report.violations.len(), 49);
        assert!(!report.truncated);
        assert_eq!(report.per_rule[0].matches, 49);
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let (g, sigma, _) = chain_setup(64);
        let seq = detect(&g, &sigma, &DetectConfig::with_workers(1));
        let par = detect(&g, &sigma, &DetectConfig::with_workers(8));
        let key = |r: &ViolationRecord| (r.gfd, r.m.clone());
        let s: Vec<_> = seq.violations.iter().map(key).collect();
        let p: Vec<_> = par.violations.iter().map(key).collect();
        assert_eq!(s, p);
    }

    #[test]
    fn budget_truncates_early() {
        let (g, sigma, _) = chain_setup(100);
        let config = DetectConfig {
            max_violations: 5,
            ..DetectConfig::with_workers(4)
        };
        let report = detect(&g, &sigma, &config);
        assert_eq!(report.violations.len(), 5);
        assert!(report.truncated);
        assert!(report.metrics.early_terminated);
    }

    #[test]
    fn clean_graph_reports_clean() {
        let (mut g, sigma, mut vocab) = chain_setup(10);
        let a = vocab.attr("a");
        for v in g.nodes().collect::<Vec<_>>() {
            g.set_attr(v, a, Value::int(0));
        }
        let report = detect(&g, &sigma, &DetectConfig::with_workers(2));
        assert!(report.is_clean());
        assert_eq!(report.per_rule[0].matches, 9);
        assert_eq!(report.per_rule[0].violations, 0);
    }

    #[test]
    fn tiny_ttl_still_finds_everything() {
        let (g, sigma, _) = chain_setup(80);
        let config = DetectConfig {
            ttl: Duration::ZERO,
            batch_size: 8,
            ..DetectConfig::with_workers(4)
        };
        let report = detect(&g, &sigma, &config);
        assert_eq!(report.violations.len(), 79);
    }

    #[test]
    fn zero_batch_size_means_one_pivot_per_unit() {
        let (g, sigma, _) = chain_setup(40);
        let run = |batch_size| {
            let config = DetectConfig {
                batch_size,
                ..DetectConfig::with_workers(2)
            };
            let report = detect(&g, &sigma, &config);
            let s = report.per_rule[0];
            (
                report.violations,
                (s.matches, s.violations),
                report.metrics.units_dispatched,
            )
        };
        assert_eq!(run(0), run(1));
    }

    /// Two rules on one pattern share units named by the leader, and the
    /// `RuleEval` spans of those units carry both members' matches and
    /// violations.
    #[test]
    fn rule_eval_spans_count_the_whole_group() {
        use gfd_runtime::EventKind;
        let (g, sigma, mut vocab) = chain_setup(30);
        let a = vocab.attr("a");
        let first = sigma.get(GfdId::new(0));
        let x = first.pattern.vars().next().expect("two variables");
        let odd_sources = Dependency::new(
            "odd-sources",
            first.pattern.clone(),
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, a, 0i64)],
        );
        let sigma = DepSet::from_vec(vec![first.clone(), odd_sources]);
        let config = DetectConfig {
            trace: TraceSpec::enabled(),
            ..DetectConfig::with_workers(2)
        };
        let report = detect(&g, &sigma, &config);
        assert_eq!(report.per_rule[0].violations, 29);
        assert_eq!(report.per_rule[1].violations, 14);
        let spans: Vec<_> = report
            .metrics
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::RuleEval)
            .collect();
        assert!(spans.iter().all(|e| e.id == 0), "units carry the leader");
        let matches: u64 = spans.iter().map(|e| e.a).sum();
        let fired: u64 = spans.iter().map(|e| e.b).sum();
        assert_eq!(matches, report.total_matches());
        assert_eq!(fired, report.violations.len() as u64);
    }

    #[test]
    fn empty_rule_set_is_trivially_clean() {
        let (g, _, _) = chain_setup(5);
        let sigma = DepSet::new();
        let report = detect(&g, &sigma, &DetectConfig::with_workers(2));
        assert!(report.is_clean());
        assert_eq!(report.metrics.units_dispatched, 0);
    }

    #[test]
    fn empty_graph_is_trivially_clean() {
        let (_, sigma, _) = chain_setup(5);
        let g = Graph::new();
        let report = detect(&g, &sigma, &DetectConfig::with_workers(2));
        assert!(report.is_clean());
        assert_eq!(report.total_matches(), 0);
    }
}
