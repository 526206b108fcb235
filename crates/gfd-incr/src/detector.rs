//! The incremental detection engine: a cached violation set kept exact
//! under a stream of delta batches.

use crate::frontier::Frontier;
use gfd_core::DepSet;
use gfd_detect::units::Group;
use gfd_detect::{
    detect_units, initial_units, units_for_pivots, DetectConfig, RulePlans, RunMetrics,
    ViolationRecord,
};
use gfd_graph::{DeltaBatch, DeltaIndex, GfdId, Graph, LabelId, LabelIndex, MatchIndex, NodeId};
use gfd_runtime::{failpoint, EventKind, TraceBuf, CONTROL_WORKER};

/// Configuration of an incremental detection session.
#[derive(Clone, Debug)]
pub struct IncrConfig {
    /// Scheduler knobs for every detection pass (initial and per batch).
    /// `max_violations` is ignored: the cache must hold the *complete*
    /// violation set, or carried-over results would be wrong.
    pub detect: DetectConfig,
    /// Compact (re-freeze base + delta into a fresh CSR) once the
    /// overlay reaches this fraction of the base edge count. `0.0` means
    /// "compact after every batch that left an overlay"; must be finite
    /// and non-negative (see [`IncrConfig::validate`]).
    pub compact_fraction: f64,
}

impl Default for IncrConfig {
    fn default() -> Self {
        IncrConfig {
            detect: DetectConfig::default(),
            compact_fraction: 0.25,
        }
    }
}

impl IncrConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        IncrConfig {
            detect: DetectConfig::with_workers(workers),
            ..Default::default()
        }
    }

    /// Check the configuration for nonsense values.
    ///
    /// `compact_fraction` must be a non-negative finite number: NaN would
    /// make the compaction comparison silently always-false (the overlay
    /// would grow without bound), and a negative threshold is a typo for
    /// `0.0`. Callers that take the value from user input (the CLI's
    /// `--compact-frac`) should surface the error; library construction
    /// panics on it ([`IncrementalDetector::new`]).
    pub fn validate(&self) -> Result<(), String> {
        let f = self.compact_fraction;
        if f.is_nan() || f.is_infinite() || f < 0.0 {
            return Err(format!(
                "compact_fraction must be a non-negative finite number, got {f}"
            ));
        }
        Ok(())
    }
}

/// What one [`IncrementalDetector::apply`] call did.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Nodes the batch actually touched (no-op updates excluded).
    pub dirty_nodes: usize,
    /// Pivot candidates re-run across all rules (the dirty frontier).
    pub rerun_pivots: usize,
    /// Cached violations evicted because their pivot was re-run.
    pub evicted: usize,
    /// Violations found by the re-run (including re-confirmed ones).
    pub found: usize,
    /// Rules re-run in full because their pattern is disconnected (no
    /// locality bound exists for those).
    pub full_rerun_rules: usize,
    /// Did this batch trigger an overlay compaction (re-freeze)?
    pub compacted: bool,
    /// Total violations live after the merge.
    pub violations_total: usize,
    /// Scheduler metrics of the re-run detection pass.
    pub metrics: RunMetrics,
}

/// The pivot label of `group`, and how far a batch's dirty frontier must
/// reach to cover its pivots: its pattern's radius at the pivot — or
/// `None` when it has no locality bound. Disconnected patterns have none
/// (a far component can match anywhere), and neither do generating
/// consequences (the realization extension can bind a fresh variable to
/// *any* node, so an update far from the pivot can realize — or
/// un-realize — the target). Both get full re-runs.
fn pivot_of(sigma: &DepSet, group: &Group) -> (LabelId, Option<u32>) {
    let dep = &sigma[group.members[0]];
    let pivot = group.plan.var_at(0);
    let radius =
        (dep.pattern.is_connected() && !dep.is_generating()).then(|| dep.pattern.radius_at(pivot));
    (dep.pattern.label(pivot), radius)
}

/// A detection result kept live under streaming updates.
///
/// Owns the graph: every mutation must flow through
/// [`IncrementalDetector::apply`] so the delta overlay, the candidate
/// index and the violation cache stay in lockstep (a bypassed mutation
/// trips the overlay's staleness assertion on the next pass).
pub struct IncrementalDetector {
    graph: Graph,
    sigma: DepSet,
    index: DeltaIndex,
    plans: RulePlans,
    violations: Vec<ViolationRecord>,
    config: IncrConfig,
    /// The dirty frontier's stamped state, kept across batches.
    frontier: Frontier,
    /// Batches applied so far — the `id` of every [`EventKind::Batch`]
    /// span this session records.
    batches_applied: u64,
}

impl IncrementalDetector {
    /// Seed the session: one full detection pass over `graph` populates
    /// the cache; subsequent [`apply`](IncrementalDetector::apply) calls
    /// keep it exact incrementally.
    ///
    /// # Panics
    ///
    /// On an invalid configuration (see [`IncrConfig::validate`]).
    pub fn new(graph: Graph, sigma: DepSet, config: IncrConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid IncrConfig: {msg}");
        }
        let li = LabelIndex::build(&graph);
        let plans = RulePlans::build(&sigma, &li);
        let units = initial_units(&sigma, &li, &plans, config.detect.batch_size);
        let report = detect_units(
            &graph,
            &li,
            &sigma,
            &plans,
            units,
            &Self::find_all(&config.detect),
        );
        IncrementalDetector {
            graph,
            sigma,
            index: li.into_delta(),
            plans,
            violations: report.violations,
            config,
            frontier: Frontier::default(),
            batches_applied: 0,
        }
    }

    /// Rebuild a session from checkpointed parts — the current graph and
    /// the violation cache — *without* the seeding detection pass.
    ///
    /// The candidate index is re-frozen from the graph (a resumed session
    /// starts with an empty overlay: resuming is also a compaction), so
    /// the only trust placed in the caller is that `violations` is the
    /// exact violation set of `graph` under `sigma` — which is what a
    /// checkpoint written by [`violations`](IncrementalDetector::violations)
    /// after an `apply` guarantees.
    ///
    /// # Panics
    ///
    /// On an invalid configuration (see [`IncrConfig::validate`]).
    pub fn from_parts(
        graph: Graph,
        sigma: DepSet,
        mut violations: Vec<ViolationRecord>,
        config: IncrConfig,
    ) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid IncrConfig: {msg}");
        }
        let li = LabelIndex::build(&graph);
        let plans = RulePlans::build(&sigma, &li);
        violations.sort_by(|a, b| (a.gfd, &a.m).cmp(&(b.gfd, &b.m)));
        IncrementalDetector {
            graph,
            sigma,
            index: li.into_delta(),
            plans,
            violations,
            config,
            frontier: Frontier::default(),
            batches_applied: 0,
        }
    }

    /// The detect config with the violation budget disabled (the cache
    /// must be complete — see [`IncrConfig::detect`]).
    fn find_all(base: &DetectConfig) -> DetectConfig {
        DetectConfig {
            max_violations: usize::MAX,
            ..base.clone()
        }
    }

    /// The current graph (post all applied batches).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The rule set being enforced.
    pub fn sigma(&self) -> &DepSet {
        &self.sigma
    }

    /// The live violation set, sorted by `(rule, match)` — identical to
    /// what a from-scratch [`gfd_detect::detect`] on the current graph
    /// reports.
    pub fn violations(&self) -> &[ViolationRecord] {
        &self.violations
    }

    /// Is the current graph clean?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Overlay size relative to the frozen base (the compaction input).
    pub fn delta_fraction(&self) -> f64 {
        self.index.delta_fraction()
    }

    /// Apply one delta batch and restore exactness by re-reasoning only
    /// the dirty frontier. Returns what was done; the updated violation
    /// set is at [`violations`](IncrementalDetector::violations).
    pub fn apply(&mut self, batch: &DeltaBatch) -> BatchReport {
        // Control-track buffer for this batch's phase spans (`Batch`,
        // `FrontierBfs`, `Compact` — DESIGN.md §13), absorbed into the
        // report's trace before returning.
        let mut ctl = TraceBuf::new(self.config.detect.trace.control(), CONTROL_WORKER);
        let batch_span = ctl.start();
        self.batches_applied += 1;
        let bid = self.batches_applied as u32;
        let batch_ops = batch.len() as u64;

        let applied = self.index.apply(batch, &mut self.graph);
        let mut report = BatchReport {
            dirty_nodes: applied.dirty.len(),
            ..Default::default()
        };
        if applied.dirty.is_empty() {
            report.violations_total = self.violations.len();
            ctl.span(EventKind::Batch, bid, batch_span, batch_ops, 0);
            report.metrics.trace.absorb_buf(ctl);
            return report;
        }

        // Threshold-triggered compaction: fold the overlay into a fresh
        // freeze. Correctness is unaffected (the view answers the same
        // probes either way); this just restores probe locality. The
        // comparison is inclusive so a threshold of 0.0 means "compact
        // after every batch that left an overlay" — an empty overlay
        // (e.g. an attribute-only batch) has nothing to fold and skips
        // the re-freeze.
        // The `incr/compact` failpoint models a compaction that could
        // not run (e.g. an allocation failure caught upstream): deferring
        // the re-freeze is always safe — the overlay view answers the
        // same probes — so the fault degrades performance, never answers.
        if self.index.delta_fraction() >= self.config.compact_fraction
            && self.index.delta().delta_size() > 0
            && !failpoint::triggered("incr/compact")
        {
            let compact_span = ctl.start();
            let overlay_ops = self.index.delta().delta_size() as u64;
            self.index = LabelIndex::build(&self.graph).into_delta();
            report.compacted = true;
            ctl.span(EventKind::Compact, bid, compact_span, overlay_ops, 0);
        }

        // Re-plan against the live statistics: between compactions the
        // overlay reports delta-adjusted label/pair frequencies, so
        // pivots, variable orders and the radii derived from them track
        // the current graph rather than the frozen base (the stale-stats
        // bug this replaced planned a stream's whole lifetime on the
        // seed freeze's frequencies).
        self.plans = RulePlans::build(&self.sigma, &self.index);
        let scopes: Vec<(LabelId, Option<u32>)> = self
            .plans
            .groups
            .iter()
            .map(|group| pivot_of(&self.sigma, group))
            .collect();

        // Dirty frontier: per pivot label, every node within the largest
        // radius of the groups pivoting on it (see `frontier` for the
        // soundness argument); each group keeps those within its own.
        let mut targets: Vec<(LabelId, u32)> = scopes
            .iter()
            .filter_map(|&(label, r)| Some((label, r?)))
            .collect();
        targets.sort_unstable_by_key(|&(label, r)| (label, u32::MAX - r));
        targets.dedup_by_key(|t| t.0);
        let bfs_span = ctl.start();
        let visited = self
            .frontier
            .run(&self.graph, &self.index, &applied.dirty, &targets);
        ctl.span(
            EventKind::FrontierBfs,
            bid,
            bfs_span,
            applied.dirty.len() as u64,
            visited as u64,
        );
        // A group's members share pattern, pivot and consequence kind, so
        // they share the pivots to re-run: one unit list per group.
        let mut group_pivots: Vec<(GfdId, Vec<NodeId>)> = Vec::new();
        let mut rule_radius: Vec<Option<u32>> = vec![None; self.sigma.len()];
        for (group, &(label, radius)) in self.plans.groups.iter().zip(&scopes) {
            for member in &group.members {
                rule_radius[member.index()] = radius;
            }
            let pivots: Vec<NodeId> = match radius {
                Some(r) => self.frontier.pivots(label, r),
                None => {
                    // No locality bound: re-run every pivot of the group.
                    report.full_rerun_rules += group.members.len();
                    self.index.candidates(label).to_vec()
                }
            };
            if !pivots.is_empty() {
                report.rerun_pivots += pivots.len() * group.members.len();
                group_pivots.push((group.members[0], pivots));
            }
        }

        // Evict every cached violation whose pivot is being re-run — its
        // group re-runs in full, or the pivot lies within the group's
        // radius: the re-run re-finds the ones that still hold, so the
        // merge below cannot duplicate or resurrect anything.
        let before = self.violations.len();
        let (plans, frontier) = (&self.plans, &self.frontier);
        self.violations.retain(|v| {
            rule_radius[v.gfd.index()].is_some_and(|r| {
                frontier
                    .dist(v.m[plans.pivot(v.gfd).index()])
                    .is_none_or(|d| d > r)
            })
        });
        report.evicted = before - self.violations.len();

        // Re-reason the frontier on the shared scheduler, over the
        // overlay view — no re-freeze happened unless we compacted.
        let units = units_for_pivots(group_pivots, self.config.detect.batch_size);
        let fresh = detect_units(
            &self.graph,
            &self.index,
            &self.sigma,
            &self.plans,
            units,
            &Self::find_all(&self.config.detect),
        );
        report.found = fresh.violations.len();
        report.metrics = fresh.metrics;
        self.violations.extend(fresh.violations);
        self.violations
            .sort_by(|a, b| (a.gfd, &a.m).cmp(&(b.gfd, &b.m)));
        report.violations_total = self.violations.len();
        ctl.span(
            EventKind::Batch,
            bid,
            batch_span,
            batch_ops,
            report.rerun_pivots as u64,
        );
        report.metrics.trace.absorb_buf(ctl);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{DepSet, Dependency, GenerateConsequence, Literal};
    use gfd_detect::detect;
    use gfd_graph::{Pattern, Value, Vocab};

    /// The detector's cached set must equal a from-scratch detect on the
    /// same graph, as (rule, match) key sets.
    fn assert_matches_full_detect(incr: &IncrementalDetector) {
        let full = detect(incr.graph(), incr.sigma(), &DetectConfig::with_workers(2));
        let key = |v: &ViolationRecord| (v.gfd, v.m.clone());
        let got: Vec<_> = incr.violations().iter().map(key).collect();
        let want: Vec<_> = full.violations.iter().map(key).collect();
        assert_eq!(got, want);
    }

    /// Chain graph t0 → t1 → … with alternating attribute values and a
    /// rule requiring equal values across each edge (every edge between
    /// a mismatched pair violates).
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
    fn seeding_matches_full_detect() {
        let (g, sigma, _) = chain_setup(40);
        let incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(4));
        assert_eq!(incr.violations().len(), 39);
        assert_matches_full_detect(&incr);
    }

    #[test]
    fn attr_write_fixes_and_breaks_violations() {
        let (g, sigma, mut vocab) = chain_setup(20);
        let a = vocab.attr("a");
        let mut incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(2));

        // Equalize one pair: two incident violations disappear (edges
        // 4→5 and 5→6 both become clean... only 5's incident ones).
        let mut batch = DeltaBatch::new();
        batch.set_attr(NodeId::new(5), a, Value::int(1));
        let rep = incr.apply(&batch);
        assert_eq!(rep.dirty_nodes, 1);
        assert!(rep.evicted >= 1);
        assert_matches_full_detect(&incr);

        // Break a previously-clean pair far away.
        let mut batch = DeltaBatch::new();
        batch.set_attr(NodeId::new(10), a, Value::int(7));
        incr.apply(&batch);
        assert_matches_full_detect(&incr);
    }

    #[test]
    fn edge_insertions_and_new_nodes_create_violations() {
        let (g, sigma, mut vocab) = chain_setup(12);
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let mut incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(2));
        let before = incr.violations().len();

        // A new node with a clashing value, wired into the chain.
        let mut batch = DeltaBatch::new();
        batch.add_node(t); // n12
        batch.set_attr(NodeId::new(12), a, Value::int(9));
        batch.add_edge(NodeId::new(0), e, NodeId::new(12));
        let rep = incr.apply(&batch);
        assert_eq!(rep.violations_total, before + 1);
        assert_matches_full_detect(&incr);
    }

    #[test]
    fn edge_deletions_evict_their_violations() {
        let (g, sigma, mut vocab) = chain_setup(16);
        let e = vocab.label("e");
        let mut incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(2));
        let before = incr.violations().len();

        let mut batch = DeltaBatch::new();
        batch.del_edge(NodeId::new(3), e, NodeId::new(4));
        batch.del_edge(NodeId::new(7), e, NodeId::new(8));
        let rep = incr.apply(&batch);
        assert_eq!(rep.violations_total, before - 2);
        assert_matches_full_detect(&incr);
    }

    #[test]
    fn noop_batches_change_nothing() {
        let (g, sigma, mut vocab) = chain_setup(8);
        let e = vocab.label("e");
        let mut incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(2));
        let before = incr.violations().len();

        let mut batch = DeltaBatch::new();
        batch.add_edge(NodeId::new(0), e, NodeId::new(1)); // duplicate
        batch.del_edge(NodeId::new(0), e, NodeId::new(5)); // absent
        let rep = incr.apply(&batch);
        assert_eq!(rep.dirty_nodes, 0);
        assert_eq!(rep.rerun_pivots, 0);
        assert_eq!(rep.violations_total, before);
        assert_matches_full_detect(&incr);
    }

    #[test]
    fn compaction_triggers_and_preserves_exactness() {
        let (g, sigma, mut vocab) = chain_setup(10);
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let mut incr = IncrementalDetector::new(
            g,
            sigma,
            IncrConfig {
                compact_fraction: 0.1,
                ..IncrConfig::with_workers(2)
            },
        );
        // Grow the overlay well past 10% of the 9-edge base.
        let mut compacted = false;
        for i in 0..6 {
            let mut batch = DeltaBatch::new();
            batch.add_node(t);
            let fresh = NodeId::new(10 + i);
            batch.set_attr(fresh, a, Value::int(5));
            batch.add_edge(NodeId::new(i), e, fresh);
            let rep = incr.apply(&batch);
            compacted |= rep.compacted;
            assert_matches_full_detect(&incr);
        }
        assert!(compacted, "overlay never compacted");
        assert!(incr.delta_fraction() < 0.2, "compaction did not reset");
    }

    #[test]
    fn zero_compact_fraction_compacts_after_every_batch() {
        let (g, sigma, mut vocab) = chain_setup(10);
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let mut incr = IncrementalDetector::new(
            g,
            sigma,
            IncrConfig {
                compact_fraction: 0.0,
                ..IncrConfig::with_workers(2)
            },
        );
        // Topology batches: each must fold its overlay away immediately.
        for i in 0..4 {
            let mut batch = DeltaBatch::new();
            batch.add_node(t);
            batch.set_attr(NodeId::new(10 + i), a, Value::int(3));
            batch.add_edge(NodeId::new(i), e, NodeId::new(10 + i));
            let rep = incr.apply(&batch);
            assert!(rep.compacted, "batch {i} did not compact at threshold 0.0");
            assert_eq!(
                incr.index.delta().delta_size(),
                0,
                "overlay not empty after apply {i}"
            );
            assert_eq!(incr.delta_fraction(), 0.0);
            assert_matches_full_detect(&incr);
        }
        // An attribute-only batch leaves no overlay: nothing to fold, no
        // wasted re-freeze.
        let mut batch = DeltaBatch::new();
        batch.set_attr(NodeId::new(0), a, Value::int(9));
        let rep = incr.apply(&batch);
        assert!(!rep.compacted);
        assert_eq!(incr.index.delta().delta_size(), 0);
        assert_matches_full_detect(&incr);
    }

    #[test]
    #[should_panic(expected = "invalid IncrConfig")]
    fn nan_compact_fraction_is_rejected() {
        let (g, sigma, _) = chain_setup(4);
        let _ = IncrementalDetector::new(
            g,
            sigma,
            IncrConfig {
                compact_fraction: f64::NAN,
                ..IncrConfig::with_workers(1)
            },
        );
    }

    #[test]
    fn negative_and_nan_fractions_fail_validation() {
        for bad in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = IncrConfig {
                compact_fraction: bad,
                ..IncrConfig::default()
            };
            assert!(cfg.validate().is_err(), "{bad} accepted");
        }
        for ok in [0.0, 0.25, 7.5] {
            let cfg = IncrConfig {
                compact_fraction: ok,
                ..IncrConfig::default()
            };
            assert!(cfg.validate().is_ok(), "{ok} rejected");
        }
    }

    /// The stale-statistics regression: a delta batch inverts which label
    /// is rare, and the next detection pass must *plan* against the
    /// overlay-adjusted frequencies — the pivot moves to the newly rare
    /// label even though no compaction has re-frozen the base.
    #[test]
    fn plans_follow_delta_adjusted_statistics() {
        let mut vocab = Vocab::new();
        let a_lbl = vocab.label("a");
        let b_lbl = vocab.label("b");
        let e = vocab.label("e");
        let val = vocab.attr("v");
        let mut g = Graph::new();
        let ra = g.add_node(a_lbl);
        for _ in 0..10 {
            let nb = g.add_node(b_lbl);
            g.add_edge(ra, e, nb);
        }
        let mut p = Pattern::new();
        let x = p.add_node(a_lbl, "x");
        let y = p.add_node(b_lbl, "y");
        p.add_edge(x, e, y);
        let gfd = Dependency::new("r", p, vec![], vec![Literal::eq_attr(x, val, y, val)]);
        let sigma = DepSet::from_vec(vec![gfd]);

        let mut incr = IncrementalDetector::new(
            g,
            sigma,
            IncrConfig {
                // High threshold: no compaction, the overlay must carry
                // the statistics on its own.
                compact_fraction: 100.0,
                ..IncrConfig::with_workers(2)
            },
        );
        assert_eq!(
            incr.plans.pivot(GfdId::new(0)),
            x,
            "seed pivot should be the rare `a`"
        );

        // Flood the graph with `a` nodes: `b` becomes the rare label.
        let mut batch = DeltaBatch::new();
        for i in 0..30 {
            batch.add_node(a_lbl);
            batch.add_edge(NodeId::new(11 + i), e, NodeId::new(1));
        }
        let rep = incr.apply(&batch);
        assert!(!rep.compacted, "test needs the overlay path");
        assert_eq!(
            incr.plans.pivot(GfdId::new(0)),
            y,
            "pivot did not move to the delta-rare label"
        );
        assert_matches_full_detect(&incr);
    }

    #[test]
    fn disconnected_patterns_fall_back_to_full_rerun() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let u = vocab.label("u");
        let a = vocab.attr("a");
        // Disconnected pattern: one t-var and one u-var, no edge. The
        // consequence ties their attributes together across the whole
        // graph — no locality.
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(u, "y");
        let gfd = Dependency::new("cross", p, vec![], vec![Literal::eq_attr(x, a, y, a)]);
        let sigma = DepSet::from_vec(vec![gfd]);

        let mut g = Graph::new();
        let n0 = g.add_node(t);
        let n1 = g.add_node(u);
        g.set_attr(n0, a, Value::int(1));
        g.set_attr(n1, a, Value::int(1));
        let mut incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(2));
        assert!(incr.is_clean());

        // An attr write on the u-node flips every (t, u) pair.
        let mut batch = DeltaBatch::new();
        batch.set_attr(n1, a, Value::int(2));
        let rep = incr.apply(&batch);
        assert_eq!(rep.full_rerun_rules, 1);
        assert_eq!(incr.violations().len(), 1);
        assert_matches_full_detect(&incr);
    }

    /// Generating rules have no locality bound: realization extensions
    /// can bind fresh variables anywhere, so the engine must fall back
    /// to full per-rule re-runs — and stay exact — for GGDs.
    #[test]
    fn generating_rules_full_rerun_and_stay_exact() {
        let mut vocab = Vocab::new();
        let person = vocab.label("person");
        let dept = vocab.label("dept");
        let member = vocab.label("memberOf");
        // GGD: every person must be a member of some dept node.
        let mut p = Pattern::new();
        let x = p.add_node(person, "x");
        let mut gen = GenerateConsequence::over(&p);
        let d = gen.add_fresh(dept, "d");
        gen.add_edge(x, member, d);
        let ggd = Dependency::new("has_dept", p, vec![], gen);
        let sigma = DepSet::from_vec(vec![ggd]);

        let mut g = Graph::new();
        let p0 = g.add_node(person);
        let _p1 = g.add_node(person);
        let d0 = g.add_node(dept);
        g.add_edge(p0, member, d0);

        let mut incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(2));
        // p1 has no dept: one violation.
        assert_eq!(incr.violations().len(), 1);
        assert_matches_full_detect(&incr);

        // Wiring p1 to the existing dept realizes the target.
        let mut batch = DeltaBatch::new();
        batch.add_edge(NodeId::new(1), member, NodeId::new(2));
        let rep = incr.apply(&batch);
        assert_eq!(rep.full_rerun_rules, 1, "GGDs must fully re-run");
        assert!(incr.is_clean());
        assert_matches_full_detect(&incr);

        // Deleting the *other* person's membership re-violates — even
        // though the deletion is far from p0's pivot under any radius.
        let mut batch = DeltaBatch::new();
        batch.del_edge(NodeId::new(0), member, NodeId::new(2));
        incr.apply(&batch);
        assert_eq!(incr.violations().len(), 1);
        assert_matches_full_detect(&incr);
    }

    #[test]
    fn deletion_heavy_stream_stays_exact() {
        let (g, sigma, mut vocab) = chain_setup(30);
        let e = vocab.label("e");
        let mut incr = IncrementalDetector::new(g, sigma, IncrConfig::with_workers(4));
        for start in [0usize, 5, 10, 15, 20, 25] {
            let mut batch = DeltaBatch::new();
            for i in start..(start + 5).min(29) {
                batch.del_edge(NodeId::new(i), e, NodeId::new(i + 1));
            }
            incr.apply(&batch);
            assert_matches_full_detect(&incr);
        }
        assert!(incr.is_clean(), "all edges deleted, nothing to violate");
    }
}
