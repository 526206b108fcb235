//! The search-unit engine: the one [`Task`] behind every match-driven
//! analysis (DESIGN.md §7).
//!
//! The paper's §V workload model is one loop: enumerate the matches of a
//! unit's pattern from its fixed prefix, hand each to the analysis, and
//! when the unit's TTL expires carve what it has not reached into units
//! for idle workers. [`SearchTask`] owns that loop and what makes it
//! fast: the per-worker [`HomSearch`] kept for the whole run (`rebind` per
//! unit, `reset` per start, so a warmed worker enumerates without
//! allocating — DESIGN.md §15.5), stop polling and the `RuleEval` span.
//!
//! The TTL is the unit's, counted across all its searches (DESIGN.md
//! §7): on expiry the current search's untried branches and the batch's
//! untried pivots go back to the owner's queue, in the order that keeps
//! one worker's searches in the unsplit order.
//!
//! What an analysis *does* with a match is its [`MatchAction`]: reasoning
//! enforces it (`crate::driver`), detection checks it against the data
//! graph (`gfd-detect`). `HomSearch::run_admitting → admit / on_match` is
//! monomorphic — no `dyn` between the kernel and the action.
//!
//! A unit's rule may stand for a *group* of rules that share its pattern
//! and plan (detection's [`MatchAction::group`]): one search serves them
//! all, and the engine keeps, per plan depth, the [`Members`] still alive
//! on the current branch — `alive[pos + 1] = alive[pos] ∧ admit(pos)` —
//! dropping the branch once none is (DESIGN.md §3). Reasoning's units are
//! singleton groups.

use crate::unit::{Prefix, WorkUnit};
use gfd_graph::{GfdId, Graph, LabelIndex, MatchIndex, NodeId, Pattern};
use gfd_match::{HomSearch, MatchPlan, RunOutcome, SearchLimits};
use gfd_runtime::sched::{Task, WorkerCtx};
use gfd_runtime::EventKind;
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A set of the members of a unit's group: bit `i` is member `i`. A group
/// has at most [`GROUP_WIDTH`] members.
pub type Members = u64;

/// The most members one group can have: the width of [`Members`].
pub const GROUP_WIDTH: usize = Members::BITS as usize;

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

    /// The members of the group `rule`'s units search for, asked once per
    /// unit. The default is `rule` alone.
    fn group(&self, _rule: GfdId) -> Members {
        1
    }

    /// Called before each unit (the stop flag is already known to be
    /// down). `Break` skips the unit.
    fn before_unit(&self, _w: &mut Self::Worker) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// Bind-time admission (`HomSearch::run_admitting`): asked when the
    /// search of `rule` binds plan position `pos`, with the members
    /// `alive` on the branch so far; answers those of them that stay
    /// alive, and none abandons the branch. It may read `partial` at the
    /// variables of positions `0..=pos` and nothing else. Detection checks
    /// its members' premises here, on the data graph; reasoning keeps every
    /// member — a premise over the per-worker `EqRel` that fails now may
    /// hold after a later `ΔEq`, and pruning on it would lose the matches
    /// that go pending.
    fn admit(&self, _rule: GfdId, _pos: usize, _partial: &[NodeId], alive: Members) -> Members {
        alive
    }

    /// One admitted match of `rule`, lent for the call, with the members
    /// it is alive for (never none). `Break` ends the unit's current
    /// search.
    fn on_match(
        &self,
        w: &mut Self::Worker,
        rule: GfdId,
        alive: Members,
        m: &[NodeId],
    ) -> ControlFlow<()>;

    /// Called after every TTL slice of a search of `rule`; `last` is set
    /// on the slice that ended the search (exhausted or stopped) rather
    /// than its TTL.
    fn after_slice(&self, _w: &mut Self::Worker, _rule: GfdId, _last: bool) {}

    /// Called when the worker has nothing to run but the run is not yet
    /// quiescent ([`Task::on_idle`]).
    fn on_idle(&self, _w: &mut Self::Worker) {}

    /// A running per-worker count whose growth over a unit the `RuleEval`
    /// span reports next to the unit's matches (detection: the violations
    /// of `rule`'s group).
    fn fired(&self, _w: &Self::Worker, _rule: GfdId) -> u64 {
        0
    }
}

/// One level of a worker's alive stack, alone on its cache-line pair: the
/// stack is written at every bind, and worker 0's is allocated on the
/// calling thread beside the plans every worker reads at every bind —
/// sharing a line with them doubled each worker's search time at p = 2.
#[derive(Clone, Default)]
#[repr(align(128))]
struct Alive(Cell<Members>);

/// Per-worker engine state: the action's state plus what the engine keeps
/// for it.
pub struct SearchWorker<'a, I: MatchIndex, W> {
    /// The worker's one matcher, built by its first unit and rebound to
    /// each later unit's pattern on the buffers it already grew.
    search: Option<HomSearch<'a, I>>,
    /// `alive[pos]`: the group members alive on the current branch once
    /// plan positions `0..pos` are bound — `alive[0]` the unit's whole
    /// group. Sized per unit; cells, because admission writes it while the
    /// match callback reads it.
    alive: Vec<Alive>,
    /// Matches lent to the action so far, one per member each is alive
    /// for (all of them admitted).
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
    /// Straggler threshold: a unit running longer than this — counted from
    /// its first poll, across all its searches — is split. `None` never
    /// splits (the paper's `*nb` ablation).
    pub ttl: Option<Duration>,
    /// The run's stop flag (the one handed to the scheduler): polled
    /// between units and starts and inside the search.
    pub stop: &'a AtomicBool,
    /// What to do with each match.
    pub action: A,
}

impl<'a, A: MatchAction<'a>, I: MatchIndex> SearchTask<'a, A, I> {
    /// Run one search to its end in TTL slices, splitting at each expiry;
    /// `rest` are the unit's pivots after this search, carved off at the
    /// first expiry. Returns whether they were. (Its own function on
    /// purpose: folded into `run_unit`, the kernel loop inlines into a
    /// body large enough to cost `sat_dbpedia` ≈ 2 % of its worker time.)
    fn run_slices(
        &self,
        w: &mut SearchWorker<'a, I, A::Worker>,
        search: &mut HomSearch<'a, I>,
        unit: &WorkUnit,
        mut rest: &[NodeId],
        ctx: &WorkerCtx<'_, WorkUnit>,
    ) -> bool {
        let rule = unit.gfd;
        let limits = SearchLimits {
            ttl: self.ttl,
            stop: Some(self.stop),
        };
        let mut carved = false;
        loop {
            let (state, matches, alive) = (&mut w.state, &mut w.matches, &w.alive[..]);
            // The search admits positions in order — a fixed or resumed
            // prefix included — so `alive[pos]` always belongs to the
            // bindings of `0..pos` on the branch being extended.
            let admit = |pos: usize, partial: &[NodeId]| {
                let now = self.action.admit(rule, pos, partial, alive[pos].0.get());
                alive[pos + 1].0.set(now);
                now != 0
            };
            let on_match = |m: &[NodeId]| {
                let members = alive[alive.len() - 1].0.get();
                *matches += u64::from(members.count_ones());
                self.action.on_match(state, rule, members, m)
            };
            let last = search.run_admitting(admit, on_match, limits) != RunOutcome::Deadline;
            if !last {
                // Straggler: carve the untried sibling branches of the
                // shallowest open level into prefix units — the owner end
                // of this worker's queue, where they keep the parent's
                // place in the order (paper's Example 6) — then the batch's
                // untried pivots, which the owner pops after the branches,
                // and keep going locally.
                let unit = |prefix| WorkUnit { gfd: rule, prefix };
                let branches = search.split_shallowest().into_iter();
                let branches = branches.map(|prefix| unit(Prefix::Split(prefix.into())));
                let pivots = (!rest.is_empty()).then(|| unit(Prefix::Pivots(rest.into())));
                carved |= pivots.is_some();
                rest = &[];
                ctx.split(branches.chain(pivots).collect());
            }
            self.action.after_slice(&mut w.state, rule, last);
            if last {
                return carved;
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
            alive: Vec::new(),
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
        w.alive.resize(plan.len() + 1, Alive::default());
        w.alive[0].0.set(self.action.group(rule));
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
            if self.run_slices(w, &mut search, &unit, unit.prefix.after(i), ctx) {
                break;
            }
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
        stars(1, LEAVES)
    }

    /// `hubs` hubs of `leaves` out-neighbours each — hub `k` is node
    /// `k · (leaves + 1)`, its leaves the nodes after it — and the pattern
    /// `y ← x → z` over them.
    fn stars(hubs: usize, leaves: usize) -> (Graph, Pattern) {
        let mut vocab = Vocab::new();
        let (h, t, e) = (vocab.label("h"), vocab.label("t"), vocab.label("e"));
        let mut g = Graph::new();
        for _ in 0..hubs {
            let hub = g.add_node(h);
            for _ in 0..leaves {
                let leaf = g.add_node(t);
                g.add_edge(hub, e, leaf);
            }
        }
        let mut p = Pattern::new();
        let x = p.add_node(h, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        p.add_edge(x, e, y);
        p.add_edge(x, e, z);
        (g, p)
    }

    /// Records every lent match with the members it is alive for. With
    /// `parity` set the unit's group has two members, and member `k` dies
    /// on a branch that binds a leaf whose id has parity `k`.
    struct Record<'a> {
        pattern: &'a Pattern,
        plan: &'a MatchPlan,
        parity: bool,
    }

    impl<'a> MatchAction<'a> for Record<'a> {
        type Worker = Vec<(Members, Match)>;

        fn worker(&self, _id: usize) -> Self::Worker {
            Vec::new()
        }

        fn rule(&self, _rule: GfdId) -> (&'a Pattern, &'a MatchPlan) {
            (self.pattern, self.plan)
        }

        fn group(&self, _rule: GfdId) -> Members {
            if self.parity {
                0b11
            } else {
                1
            }
        }

        fn admit(&self, _rule: GfdId, pos: usize, partial: &[NodeId], alive: Members) -> Members {
            let node = partial[self.plan.var_at(pos).index()];
            if self.parity && node.index() > 0 {
                alive & !(1 << (node.index() % 2))
            } else {
                alive
            }
        }

        fn on_match(
            &self,
            seen: &mut Self::Worker,
            _rule: GfdId,
            alive: Members,
            m: &[NodeId],
        ) -> ControlFlow<()> {
            seen.push((alive, m.into()));
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
        parity: bool,
    ) -> (Vec<(Members, Match)>, RunMetrics) {
        let (mut all, metrics) = lent_in_order(&star(), pivot, prefix, ttl, workers, parity);
        all.sort();
        (all, metrics)
    }

    /// [`lent`] over any `(graph, pattern)`, the matches in the order they
    /// were lent (worker by worker).
    fn lent_in_order(
        (g, p): &(Graph, Pattern),
        pivot: VarId,
        prefix: impl FnOnce(&MatchPlan) -> Prefix,
        ttl: Option<Duration>,
        workers: usize,
        parity: bool,
    ) -> (Vec<(Members, Match)>, RunMetrics) {
        let index = LabelIndex::build(g);
        let plan = MatchPlan::build(p, Some(pivot), Some(&index));
        let unit = WorkUnit {
            gfd: GfdId::new(0),
            prefix: prefix(&plan),
        };
        let stop = AtomicBool::new(false);
        let task = SearchTask {
            graph: g,
            index: &index,
            ttl,
            stop: &stop,
            action: Record {
                pattern: p,
                plan: &plan,
                parity,
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
        let all: Vec<_> = run.workers.into_iter().flat_map(|w| w.state).collect();
        assert_eq!(
            per_worker,
            all.iter().map(|(a, _)| u64::from(a.count_ones())).sum(),
            "the engine counts what it lends, per member"
        );
        (all, metrics)
    }

    /// What `gfd_match::brute` enumerates on the star, each match with the
    /// members `alive` gives it; those with none are dropped.
    fn brute(alive: impl Fn(&[NodeId]) -> Members) -> Vec<(Members, Match)> {
        brute_on(&star(), alive)
    }

    /// [`brute`] over any `(graph, pattern)`, sorted.
    fn brute_on(
        (g, p): &(Graph, Pattern),
        alive: impl Fn(&[NodeId]) -> Members,
    ) -> Vec<(Members, Match)> {
        let mut all: Vec<_> = brute_force_matches(g, p)
            .into_iter()
            .map(|m| (alive(&m), m))
            .filter(|(a, _)| *a != 0)
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
            false,
        );
        assert_eq!(got, brute(|m| Members::from(batch.contains(&m[1]))));
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
            false,
        );
        assert_eq!(got, brute(|m| Members::from(m[fixed.index()] == leaf)));
        assert_eq!(got.len(), LEAVES);
    }

    #[test]
    fn a_zero_ttl_splits_the_unit_and_still_lends_each_match_once() {
        for workers in [1usize, 2] {
            let (got, metrics) = lent(
                VarId::new(0),
                |_| Prefix::Pivots([NodeId::new(0)].into()),
                Some(Duration::ZERO),
                workers,
                false,
            );
            assert_eq!(got, brute(|_| 1), "workers={workers}");
            assert_eq!(got.len(), LEAVES * LEAVES);
            assert!(metrics.units_split > 0, "TTL = 0 never split");
            assert_eq!(
                metrics.units_dispatched,
                1 + metrics.units_split,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn group_members_stay_alive_per_branch_across_splits() {
        // Member k survives a match iff neither leaf has parity k: a match
        // with one leaf of each parity is alive for nobody and pruned.
        let alive = |m: &[NodeId]| {
            m[1..]
                .iter()
                .fold(0b11, |a: Members, n| a & !(1 << (n.index() % 2)))
        };
        for (ttl, workers) in [
            (None, 1usize),
            (Some(Duration::ZERO), 1),
            (Some(Duration::ZERO), 2),
        ] {
            for pivot in [0, 1] {
                let (got, metrics) = lent(
                    VarId::new(pivot),
                    |plan| Prefix::Pivots(plan_candidates(plan).into()),
                    ttl,
                    workers,
                    true,
                );
                assert_eq!(
                    got,
                    brute(alive),
                    "ttl={ttl:?}, workers={workers}, pivot={pivot}"
                );
                assert_eq!(got.len(), LEAVES * LEAVES / 2);
                if pivot == 0 && ttl.is_some() {
                    assert!(metrics.units_split > 0, "TTL = 0 never split the hub");
                }
            }
        }
    }

    #[test]
    fn unit_ttl_counts_steps_across_a_batch_and_carves_its_untried_pivots() {
        // 1 024 hubs of three leaves, pivoted at the hub: each search ends
        // within about 20 steps, far short of one 256-step poll, so the
        // batch expires only if its step count runs across its searches.
        const HUBS: usize = 1024;
        let fixture = stars(HUBS, 3);
        let batch: Vec<NodeId> = (0..HUBS).map(|k| NodeId::new(k * 4)).collect();
        let run = |ttl, workers| {
            let prefix = |_: &MatchPlan| Prefix::Pivots(batch.clone().into());
            lent_in_order(&fixture, VarId::new(0), prefix, ttl, workers, false)
        };
        let sorted = |mut v: Vec<(Members, Match)>| {
            v.sort();
            v
        };
        let (whole, metrics) = run(None, 1);
        let expected = brute_on(&fixture, |_| 1);
        assert_eq!(expected.len(), HUBS * 9);
        assert_eq!(sorted(whole.clone()), expected);
        assert_eq!(metrics.units_split, 0);
        for workers in [1usize, 2] {
            let (got, metrics) = run(Some(Duration::ZERO), workers);
            assert!(metrics.units_split > 0, "workers={workers}: never split");
            assert_eq!(
                metrics.units_dispatched,
                1 + metrics.units_split,
                "workers={workers}"
            );
            if workers == 1 {
                assert_eq!(got, whole, "the carved batch runs in the unsplit order");
            }
            assert_eq!(sorted(got), expected, "workers={workers}");
        }
    }

    /// Every node the plan's pivot variable can take on the star.
    fn plan_candidates(plan: &MatchPlan) -> Vec<NodeId> {
        if plan.var_at(0).index() == 0 {
            vec![NodeId::new(0)]
        } else {
            (1..=LEAVES).map(NodeId::new).collect()
        }
    }
}
