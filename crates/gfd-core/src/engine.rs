//! The search-unit engine: the one [`Task`] behind every match-driven
//! analysis (DESIGN.md §7).
//!
//! The paper's §V workload model is one loop: enumerate the matches of a
//! unit's pattern from its fixed prefix, hand each to the analysis, and
//! when a TTL slice expires carve the untried sibling branches into prefix
//! units for idle workers. [`SearchTask`] owns that loop and what makes it
//! fast: the per-worker [`HomSearch`] kept for the whole run (`rebind` per
//! unit, `reset` per start, so a warmed worker enumerates without
//! allocating — DESIGN.md §15.5), stop polling and the `RuleEval` span.
//! What an analysis *does* with a match is its [`MatchAction`]: reasoning
//! enforces it (`crate::driver`), detection checks it against the data
//! graph (`gfd-detect`). `HomSearch::run_admitting → admit / on_match` is
//! monomorphic — no `dyn` between the kernel and the action.

use crate::unit::{Prefix, WorkUnit};
use gfd_graph::{GfdId, Graph, LabelIndex, MatchIndex, NodeId, Pattern};
use gfd_match::{HomSearch, MatchPlan, RunOutcome, SearchLimits};
use gfd_runtime::sched::{Task, WorkerCtx};
use gfd_runtime::EventKind;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one analysis does with the matches the engine enumerates. `'a` is
/// the lifetime of the rule set the run borrows.
pub trait MatchAction<'a>: Sync {
    /// Per-worker state, created on the worker thread and handed back in
    /// [`SearchWorker::state`] after the run.
    type Worker: Send;

    /// Create the state of worker `id`.
    fn worker(&self, id: usize) -> Self::Worker;

    /// The pattern of `rule` and its pivoted plan. Called only for rules
    /// that own a unit.
    fn rule(&self, rule: GfdId) -> (&'a Pattern, &'a MatchPlan);

    /// Called before each unit (the stop flag is already known to be
    /// down). `Break` skips the unit.
    fn before_unit(&self, _w: &mut Self::Worker) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// Bind-time admission (`HomSearch::run_admitting`): asked when the
    /// search of `rule` binds plan position `pos`; `false` abandons the
    /// branch. It may read `partial` at the variables of positions
    /// `0..=pos` and nothing else. Detection checks its premise here, on
    /// the data graph; reasoning leaves it at `true` — a premise over the
    /// per-worker `EqRel` that fails now may hold after a later `ΔEq`, and
    /// pruning on it would lose the matches that go pending.
    fn admit(&self, _rule: GfdId, _pos: usize, _partial: &[NodeId]) -> bool {
        true
    }

    /// One admitted match of `rule`, lent for the call. `Break` ends the
    /// unit's current search.
    fn on_match(&self, w: &mut Self::Worker, rule: GfdId, m: &[NodeId]) -> ControlFlow<()>;

    /// Called after every TTL slice of a search of `rule`; `last` is set
    /// on the slice that ended the search (exhausted or stopped) rather
    /// than its TTL.
    fn after_slice(&self, _w: &mut Self::Worker, _rule: GfdId, _last: bool) {}

    /// Called when the worker has nothing to run but the run is not yet
    /// quiescent ([`Task::on_idle`]).
    fn on_idle(&self, _w: &mut Self::Worker) {}

    /// A running per-worker count whose growth over a unit the `RuleEval`
    /// span reports next to the unit's matches (detection: violations).
    fn fired(&self, _w: &Self::Worker, _rule: GfdId) -> u64 {
        0
    }
}

/// Per-worker engine state: the action's state plus what the engine keeps
/// for it.
pub struct SearchWorker<'a, I: MatchIndex, W> {
    /// The worker's one matcher, built by its first unit and rebound to
    /// each later unit's pattern on the buffers it already grew.
    search: Option<HomSearch<'a, I>>,
    /// Matches lent to the action so far (all of them admitted).
    pub matches: u64,
    /// The action's own state.
    pub state: W,
}

/// The match-driven workload the scheduler runs: [`WorkUnit`]s of the
/// action's rules over one indexed graph.
pub struct SearchTask<'a, A, I: MatchIndex = LabelIndex> {
    /// The graph every unit matches in.
    pub graph: &'a Graph,
    /// Its index (a frozen `LabelIndex`, or a `DeltaIndex` overlay).
    pub index: &'a I,
    /// Straggler threshold: a search running longer than this is split.
    /// `None` never splits (the paper's `*nb` ablation).
    pub ttl: Option<Duration>,
    /// The run's stop flag (the one handed to the scheduler): polled
    /// between units and starts and inside the search.
    pub stop: &'a AtomicBool,
    /// What to do with each match.
    pub action: A,
}

impl<'a, A: MatchAction<'a>, I: MatchIndex> SearchTask<'a, A, I> {
    /// Run one search to its end in TTL slices, splitting at each expiry.
    /// (Its own function on purpose: folded into `run_unit`, the kernel
    /// loop inlines into a body large enough to cost `sat_dbpedia` ≈ 2 %
    /// of its worker time.)
    fn run_slices(
        &self,
        w: &mut SearchWorker<'a, I, A::Worker>,
        search: &mut HomSearch<'a, I>,
        unit: &WorkUnit,
        ctx: &WorkerCtx<'_, WorkUnit>,
    ) {
        let rule = unit.gfd;
        loop {
            let limits = SearchLimits {
                deadline: self.ttl.map(|ttl| Instant::now() + ttl),
                stop: Some(self.stop),
            };
            let (state, matches) = (&mut w.state, &mut w.matches);
            let on_match = |m: &[NodeId]| {
                *matches += 1;
                self.action.on_match(state, rule, m)
            };
            let admit = |pos: usize, partial: &[NodeId]| self.action.admit(rule, pos, partial);
            let last = search.run_admitting(admit, on_match, limits) != RunOutcome::Deadline;
            if !last {
                // Straggler: carve the untried sibling branches of the
                // shallowest open level into prefix units — front of this
                // worker's deque, the parent's priority (paper's Example
                // 6) — and keep going locally.
                let rest = search.split_shallowest().into_iter();
                ctx.split(
                    rest.map(|prefix| WorkUnit {
                        gfd: rule,
                        prefix: Prefix::Split(prefix.into()),
                        priority: unit.priority,
                    })
                    .collect(),
                );
            }
            self.action.after_slice(&mut w.state, rule, last);
            if last {
                return;
            }
        }
    }
}

impl<'a, A: MatchAction<'a>, I: MatchIndex> Task for SearchTask<'a, A, I> {
    type Unit = WorkUnit;
    type Worker = SearchWorker<'a, I, A::Worker>;

    fn worker(&self, id: usize) -> Self::Worker {
        SearchWorker {
            search: None,
            matches: 0,
            state: self.action.worker(id),
        }
    }

    fn run_unit(&self, w: &mut Self::Worker, unit: WorkUnit, ctx: &WorkerCtx<'_, WorkUnit>) {
        if self.stop.load(Ordering::Relaxed) || self.action.before_unit(&mut w.state).is_break() {
            return;
        }
        let rule = unit.gfd;
        let (pattern, plan) = self.action.rule(rule);
        let span = ctx.trace_start();
        let (matches0, fired0) = (w.matches, self.action.fired(&w.state, rule));
        // The search leaves the worker for the unit; after a panic the
        // next unit builds one.
        let mut search = w
            .search
            .take()
            .unwrap_or_else(|| HomSearch::new(self.graph, self.index, pattern, plan));
        for (i, start) in unit.prefix.starts().enumerate() {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            // `rebind` once per unit, `reset` per further start.
            if i == 0 {
                search.rebind(pattern, plan, start);
            } else {
                search.reset(start);
            }
            self.run_slices(w, &mut search, &unit, ctx);
        }
        w.search = Some(search);
        ctx.trace_span(
            EventKind::RuleEval,
            rule.index() as u32,
            span,
            w.matches - matches0,
            self.action.fired(&w.state, rule) - fired0,
        );
    }

    fn on_idle(&self, w: &mut Self::Worker, _ctx: &WorkerCtx<'_, WorkUnit>) {
        self.action.on_idle(&mut w.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{run_task, Budget};
    use gfd_graph::{VarId, Vocab};
    use gfd_match::brute::brute_force_matches;
    use gfd_match::Match;
    use gfd_runtime::{RunMetrics, TraceSpec};

    const LEAVES: usize = 40;

    /// A hub with `LEAVES` out-neighbours, and the pattern `y ← x → z`
    /// over it: `LEAVES²` matches, all through the hub — one pivoted
    /// search long enough to outlive several deadline polls.
    fn star() -> (Graph, Pattern) {
        let mut vocab = Vocab::new();
        let (h, t, e) = (vocab.label("h"), vocab.label("t"), vocab.label("e"));
        let mut g = Graph::new();
        let hub = g.add_node(h);
        for _ in 0..LEAVES {
            let leaf = g.add_node(t);
            g.add_edge(hub, e, leaf);
        }
        let mut p = Pattern::new();
        let x = p.add_node(h, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        p.add_edge(x, e, y);
        p.add_edge(x, e, z);
        (g, p)
    }

    /// Records every lent match.
    struct Record<'a> {
        pattern: &'a Pattern,
        plan: &'a MatchPlan,
    }

    impl<'a> MatchAction<'a> for Record<'a> {
        type Worker = Vec<Match>;

        fn worker(&self, _id: usize) -> Vec<Match> {
            Vec::new()
        }

        fn rule(&self, _rule: GfdId) -> (&'a Pattern, &'a MatchPlan) {
            (self.pattern, self.plan)
        }

        fn on_match(&self, seen: &mut Vec<Match>, _rule: GfdId, m: &[NodeId]) -> ControlFlow<()> {
            seen.push(m.into());
            ControlFlow::Continue(())
        }
    }

    /// Run `prefix` as one unit of the star pattern pivoted at `pivot`;
    /// the lent matches (sorted, duplicates kept) and the run's metrics.
    fn lent(
        pivot: VarId,
        prefix: impl FnOnce(&MatchPlan) -> Prefix,
        ttl: Option<Duration>,
        workers: usize,
    ) -> (Vec<Match>, RunMetrics) {
        let (g, p) = star();
        let index = LabelIndex::build(&g);
        let plan = MatchPlan::build(&p, Some(pivot), Some(&index));
        let unit = WorkUnit {
            gfd: GfdId::new(0),
            prefix: prefix(&plan),
            priority: 0,
        };
        let stop = AtomicBool::new(false);
        let task = SearchTask {
            graph: &g,
            index: &index,
            ttl,
            stop: &stop,
            action: Record {
                pattern: &p,
                plan: &plan,
            },
        };
        let mut metrics = RunMetrics::default();
        let run = run_task(
            &task,
            vec![unit],
            workers,
            &stop,
            &Budget::unlimited(),
            TraceSpec::disabled(),
            &mut metrics,
        );
        assert_eq!(run.interrupt, None);
        let per_worker: u64 = run.workers.iter().map(|w| w.matches).sum();
        let mut all: Vec<Match> = run.workers.into_iter().flat_map(|w| w.state).collect();
        assert_eq!(
            per_worker,
            all.len() as u64,
            "the engine counts what it lends"
        );
        all.sort();
        (all, metrics)
    }

    /// What `gfd_match::brute` enumerates, restricted by `keep`.
    fn brute(keep: impl Fn(&[NodeId]) -> bool) -> Vec<Match> {
        let (g, p) = star();
        let mut all: Vec<Match> = brute_force_matches(&g, &p)
            .into_iter()
            .filter(|m| keep(m))
            .collect();
        all.sort();
        all
    }

    #[test]
    fn a_pivot_batch_lends_every_match_of_its_pivots_once() {
        // Pivoted at the leaf variable `y`: the batch is every other leaf.
        let batch: Vec<NodeId> = (1..=LEAVES).step_by(2).map(NodeId::new).collect();
        let unit = batch.clone();
        let (got, metrics) = lent(
            VarId::new(1),
            |_| Prefix::Pivots(unit.into()),
            Some(Duration::from_secs(60)),
            1,
        );
        assert_eq!(got, brute(|m| batch.contains(&m[1])));
        assert_eq!(got.len(), batch.len() * LEAVES);
        assert_eq!(metrics.units_split, 0);
    }

    #[test]
    fn a_split_prefix_lends_exactly_its_branch() {
        // Pivoted at the hub, plan position 1 fixed to leaf 7.
        let (hub, leaf) = (NodeId::new(0), NodeId::new(7));
        let mut fixed = VarId::new(0);
        let (got, _) = lent(
            VarId::new(0),
            |plan| {
                fixed = plan.var_at(1);
                Prefix::Split([hub, leaf].into())
            },
            None,
            1,
        );
        assert_eq!(got, brute(|m| m[fixed.index()] == leaf));
        assert_eq!(got.len(), LEAVES);
    }

    #[test]
    fn a_zero_ttl_splits_the_unit_and_still_lends_each_match_once() {
        for workers in [1usize, 2] {
            let (got, metrics) = lent(
                VarId::new(0),
                |_| Prefix::Pivot(NodeId::new(0)),
                Some(Duration::ZERO),
                workers,
            );
            assert_eq!(got, brute(|_| true), "workers={workers}");
            assert_eq!(got.len(), LEAVES * LEAVES);
            assert!(metrics.units_split > 0, "TTL = 0 never split");
            assert_eq!(
                metrics.units_dispatched,
                1 + metrics.units_split,
                "workers={workers}"
            );
        }
    }
}
