//! The unified reasoning driver: one fixpoint loop for `SeqSat`, `SeqImp`,
//! `ParSat` and `ParImp`, run on the `gfd-runtime` work-stealing scheduler.
//!
//! Pivoted work units `(Q[z], ϕ)` are generated and priority-ordered by
//! [`crate::unit`] and matched by the search-unit engine
//! ([`crate::engine::SearchTask`], which owns the per-worker `HomSearch`,
//! the TTL slices and straggler splitting). What reasoning adds is its
//! match-action, `ReasonAction`: every match is enforced into a per-worker
//! [`EnforceEngine`], with
//!
//! * **one `ΔEq` log** — append-only. After each TTL slice, and when
//!   idle, a worker appends the ops it enforced since it last did; before
//!   each unit, and when idle, it applies the ops its peers appended past
//!   its cursor;
//! * **early termination** — a conflict, or for implication a deduced
//!   consequence, raises the scheduler's stop flag;
//! * **catch-up** — after quiescence the calling thread reads the log to
//!   its end, closing the window where a pending premise was satisfied by
//!   a `ΔEq` that arrived after its worker went idle. Binds and merges
//!   commute, so every engine then holds the global fixpoint, with no
//!   merge (DESIGN.md §4, §7).
//!
//! The sequential algorithms are the `workers = 1` instantiation of the
//! same task: there is no peer and no log, the single engine already *is*
//! the global fixpoint, and the scheduler runs the one worker inline on
//! the calling thread. Sequential and parallel reasoning therefore cannot
//! drift semantically — they are the same code path.

use crate::budget::{run_task, Budget};
use crate::canonical::{build_plans_lazy, consequence_deducible_on, CanonicalGraph};
use crate::dependency::{DepSet, Dependency};
use crate::enforce::EnforceEngine;
use crate::engine::{MatchAction, Members, SearchTask};
use crate::eq::{EqOp, EqRel};
use crate::error::Conflict;
use crate::unit::{generate_units, order_units};
use gfd_graph::{GfdId, NodeId, Pattern};
use gfd_match::{Match, MatchPlan};
use gfd_runtime::{RunMetrics, RunOutcome as SchedOutcome, TraceSpec};
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a reasoning run is trying to decide.
#[derive(Clone, Copy)]
pub enum Goal<'a> {
    /// Satisfiability over `GΣ`.
    Sat,
    /// Implication of `ϕ` over `G^X_Q`. Workers terminate early when ϕ's
    /// consequence becomes deducible: `Y ⊆ EqH` for literals; for a
    /// generating ϕ, some extension of the identity match realizes the
    /// target subgraph in the canonical graph with every attribute
    /// assignment forced by the current relation (Σ is literal, so
    /// enforcement never changes the topology that check probes).
    Imp(&'a Dependency),
}

/// A run-ending event raised by a worker or the catch-up.
#[derive(Clone, Debug)]
pub enum TerminalEvent {
    /// Distinct constants forced onto one class (the `f_c` flag).
    Conflict(Conflict),
    /// `Y ⊆ EqH` reached (implication only).
    Consequence,
}

/// Tuning knobs of the unified driver (§V-B, §VI-C).
///
/// `ParSat`/`ParImp` are this configuration at `workers = p`,
/// `SeqSat`/`SeqImp` at `workers = 1`; the paper's ablation variants
/// (`*np`, `*nb`, no ordering, no pruning) are its other knobs.
#[derive(Clone, Debug)]
pub struct ReasonConfig {
    /// Number of workers `p`. `1` runs inline on the calling thread.
    pub workers: usize,
    /// Straggler threshold: a work unit matching longer than this is split
    /// (the paper's TTL, Exp-4 varies it from 0.1 s to 8 s). `None` — the
    /// paper's `*nb` variants — never splits: stragglers run to completion
    /// on one worker.
    pub ttl: Option<Duration>,
    /// Pipelined parallelism: enforce each match as soon as it is found.
    /// With `false` (the paper's `*np` variants) a unit first enumerates
    /// *all* its matches, then enforces them.
    pub pipeline: bool,
    /// Seed work units producers first, by the rule-level dependency
    /// order (`order_units`). With `false` — the paper's "no ordering"
    /// ablation — units run in generation order, rule by rule.
    pub use_dependency_order: bool,
    /// Skip units whose pivot component cannot host the pattern.
    pub prune_components: bool,
    /// Resource limits (deadline, max units). Exhaustion degrades the run
    /// to an unknown outcome (DESIGN.md §11.2); the default is unlimited.
    pub budget: Budget,
    /// Structured tracing (DESIGN.md §13). Disabled by default; when
    /// enabled the scheduler and every work unit record typed spans into
    /// per-worker ring buffers, returned on `RunMetrics::trace`.
    pub trace: TraceSpec,
}

impl Default for ReasonConfig {
    fn default() -> Self {
        ReasonConfig {
            workers: 4,
            ttl: Some(Duration::from_secs(2)),
            pipeline: true,
            use_dependency_order: true,
            prune_components: true,
            budget: Budget::unlimited(),
            trace: TraceSpec::default(),
        }
    }
}

impl ReasonConfig {
    /// Default configuration with `p` workers.
    pub fn with_workers(workers: usize) -> Self {
        ReasonConfig {
            workers,
            ..Self::default()
        }
    }

    /// The `*np` ablation: no pipelining.
    pub fn without_pipeline(mut self) -> Self {
        self.pipeline = false;
        self
    }

    /// The `*nb` ablation: no work-unit splitting.
    pub fn without_split(mut self) -> Self {
        self.ttl = None;
        self
    }

    /// Split stragglers past `ttl`.
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Override the resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Enable structured tracing with the given spec.
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }
}

/// The outcome of a reasoning run, before goal-specific interpretation.
pub struct ReasonRun {
    /// Early or final terminal event, if any.
    pub terminal: Option<TerminalEvent>,
    /// Worker 0's engine after the catch-up (absent when the run
    /// terminated early or was degraded by its budget).
    pub engine: Option<EnforceEngine>,
    /// How the scheduler run ended. Anything other than `Completed` /
    /// `Stopped` means the fixpoint was not reached: a missing terminal
    /// event then maps to an *unknown* outcome, never a definite one.
    pub sched_outcome: SchedOutcome,
    /// Run counters.
    pub metrics: RunMetrics,
}

/// The run's one `ΔEq` log: every op any worker enforced, append-only, in
/// segments of one author each. Workers read it by cursor.
#[derive(Default)]
struct DeltaLog {
    segments: Mutex<Segments>,
    /// The segment count, published with `Release` after each append. A
    /// reader whose cursor equals it skips the lock; a stale count only
    /// delays a read, since the catch-up reads under the lock.
    published: AtomicUsize,
}

/// Every op appended, and per segment its author and the end of its ops
/// in the first `Vec`.
type Segments = (Vec<EqOp>, Vec<(usize, usize)>);

impl DeltaLog {
    /// Append `new`, unless it is empty, as one segment written by
    /// `author`.
    fn append(&self, author: usize, new: &[EqOp]) {
        if new.is_empty() {
            return;
        }
        let (ops, ends) = &mut *self.segments.lock();
        ops.extend_from_slice(new);
        ends.push((author, ops.len()));
        self.published.store(ends.len(), Ordering::Release);
    }

    /// Copy into `into` the ops of the segments past `cursor` that
    /// `reader` did not write, and move `cursor` to the end.
    fn read(&self, reader: usize, cursor: &mut usize, into: &mut Vec<EqOp>) {
        into.clear();
        if self.published.load(Ordering::Acquire) == *cursor {
            return;
        }
        let (ops, ends) = &*self.segments.lock();
        let mut start = cursor.checked_sub(1).map_or(0, |last| ends[last].1);
        for &(author, end) in &ends[*cursor..] {
            if author != reader {
                into.extend_from_slice(&ops[start..end]);
            }
            start = end;
        }
        *cursor = ends.len();
    }
}

/// Reasoning's match-action (see [`crate::engine`]): enforce every match
/// into the worker's [`EnforceEngine`] and keep the peers' relations in
/// step.
struct ReasonAction<'a> {
    sigma: &'a DepSet,
    canon: &'a CanonicalGraph,
    plans: &'a [Option<MatchPlan>],
    goal: Goal<'a>,
    /// `false` is the `*np` ablation: matches are buffered and enforced
    /// only once their search ended.
    pipeline: bool,
    eq0: &'a EqRel,
    stop: &'a AtomicBool,
    /// The `ΔEq` log; `None` at one worker, which has no peer to tell.
    log: Option<DeltaLog>,
    /// First terminal event raised anywhere in the run.
    terminal: Mutex<Option<TerminalEvent>>,
}

/// Per-worker reasoning state.
#[derive(Default)]
struct ReasonWorker {
    engine: EnforceEngine,
    /// The worker's id: the author of its log segments.
    id: usize,
    /// Log segments already read (or skipped as this worker's own).
    cursor: usize,
    /// The foreign ops of the last read, applied outside the log's lock.
    inbox: Vec<EqOp>,
    last_y_version: u64,
    /// This worker already raised a terminal event; stop doing work.
    done: bool,
    /// The `*np` ablation's matches of the search in progress.
    buffered: Vec<Match>,
}

impl ReasonWorker {
    /// `Break` once this worker raised a terminal event.
    fn proceed(&self) -> ControlFlow<()> {
        if self.done {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Apply the ops the peers appended past this worker's cursor,
    /// cascading its pending rechecks.
    fn read(&mut self, sigma: &DepSet, log: &DeltaLog) -> Result<(), Conflict> {
        log.read(self.id, &mut self.cursor, &mut self.inbox);
        self.engine.apply_remote_ops(sigma, &self.inbox)
    }

    /// Append the ops this worker enforced since it last did, then forget
    /// them (also when there is no log to append to).
    fn publish(&mut self, log: Option<&DeltaLog>) {
        if let Some(log) = log {
            log.append(self.id, &self.engine.delta);
        }
        self.engine.delta.clear();
    }
}

impl ReasonAction<'_> {
    /// Raise a terminal event: record it (first writer wins) and set the
    /// global stop flag so every worker aborts its search.
    fn terminal(&self, w: &mut ReasonWorker, event: TerminalEvent) {
        if w.done {
            return;
        }
        w.done = true;
        let mut slot = self.terminal.lock();
        if slot.is_none() {
            *slot = Some(event);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Apply the peers' new ops, then re-test the consequence for
    /// implication goals.
    fn read_log(&self, w: &mut ReasonWorker) {
        if let Some(log) = &self.log {
            if let Err(c) = w.read(self.sigma, log) {
                self.terminal(w, TerminalEvent::Conflict(c));
                return;
            }
        }
        self.check_consequence(w);
    }

    fn check_consequence(&self, w: &mut ReasonWorker) {
        let Goal::Imp(phi) = self.goal else { return };
        if w.done {
            return;
        }
        let v = w.engine.eq.version();
        if v != w.last_y_version {
            w.last_y_version = v;
            if consequence_deducible_on(&w.engine.eq, &self.canon.index, phi) {
                self.terminal(w, TerminalEvent::Consequence);
            }
        }
    }

    /// Enforce one match (`HomMatch ∥ CheckAttr`).
    fn enforce(&self, w: &mut ReasonWorker, rule: GfdId, m: &[NodeId]) -> ControlFlow<()> {
        match w.engine.process_match(self.sigma, rule, m) {
            Err(c) => self.terminal(w, TerminalEvent::Conflict(c)),
            Ok(()) => self.check_consequence(w),
        }
        w.proceed()
    }
}

impl<'a> MatchAction<'a> for ReasonAction<'a> {
    type Worker = ReasonWorker;

    fn worker(&self, id: usize) -> ReasonWorker {
        let engine = EnforceEngine::with_eq(self.eq0.clone());
        ReasonWorker {
            engine,
            id,
            ..ReasonWorker::default()
        }
    }

    fn rule(&self, rule: GfdId) -> (&'a Pattern, &'a MatchPlan) {
        let plan = self.plans[rule.index()]
            .as_ref()
            .expect("a unit exists, so its rule has pivot candidates and a plan");
        (&self.sigma[rule].pattern, plan)
    }

    fn before_unit(&self, w: &mut ReasonWorker) -> ControlFlow<()> {
        w.proceed()?;
        self.read_log(w);
        w.proceed()
    }

    fn on_match(
        &self,
        w: &mut ReasonWorker,
        rule: GfdId,
        _alive: Members,
        m: &[NodeId],
    ) -> ControlFlow<()> {
        if self.pipeline {
            self.enforce(w, rule, m)
        } else {
            w.buffered.push(m.into());
            ControlFlow::Continue(())
        }
    }

    /// Publish between TTL periods, so long units still propagate their
    /// enforcements promptly, and at the end of the search — where `*np`
    /// first enforces what it buffered.
    fn after_slice(&self, w: &mut ReasonWorker, rule: GfdId, last: bool) {
        if last && !self.pipeline {
            for m in std::mem::take(&mut w.buffered) {
                if self.stop.load(Ordering::Relaxed) || self.enforce(w, rule, &m).is_break() {
                    break;
                }
            }
        }
        w.publish(self.log.as_ref());
    }

    /// Read, then publish what the read's cascades enforced: the peers
    /// hear it now rather than in the catch-up.
    fn on_idle(&self, w: &mut ReasonWorker) {
        self.read_log(w);
        w.publish(self.log.as_ref());
    }
}

/// Execute a reasoning run over a prepared canonical graph.
///
/// This is the one driver behind `SeqSat`, `SeqImp`, `ParSat` and
/// `ParImp`; the sequential algorithms call it with `cfg.workers == 1`.
///
/// # Panics
///
/// If Σ has a generating rule. Enforcement binds and merges attributes of
/// a fixed canonical graph, so every consequence it fires must be literal;
/// this is the one place that is checked. A Σ with generating rules is
/// decided by the chase — `gfd_chase::dep_sat_with_config` /
/// `dep_imp_with_config` route it there.
pub fn run_reason(
    sigma: &DepSet,
    goal: Goal<'_>,
    eq0: EqRel,
    canon: &CanonicalGraph,
    cfg: &ReasonConfig,
) -> ReasonRun {
    assert!(
        !sigma.has_generating(),
        "the enforcement driver admits literal consequences only: route a Σ with generating rules through gfd-chase"
    );
    let start = Instant::now();
    let p = cfg.workers.max(1);
    let mut metrics = RunMetrics {
        workers: p,
        ..Default::default()
    };

    let (pivots, plans) = build_plans_lazy(sigma, &canon.index);
    let mut units = generate_units(sigma, canon, &pivots, cfg.prune_components);
    if cfg.use_dependency_order {
        // Implication front-loads the rules whose premise attributes all
        // occur in X (the X-subsumption priority boost of §VI-C).
        let boosted: Option<Vec<bool>> = match goal {
            Goal::Sat => None,
            Goal::Imp(phi) => {
                let x_attrs: FxHashSet<_> = phi.premise_attrs().collect();
                let subsumed = |g: &Dependency| g.premise_attrs().all(|a| x_attrs.contains(&a));
                Some(sigma.iter().map(|(_, g)| subsumed(g)).collect())
            }
        };
        order_units(&mut units, sigma, canon, &pivots, boosted.as_deref());
    }

    let stop = AtomicBool::new(false);
    let task = SearchTask {
        graph: &canon.graph,
        index: &canon.index,
        ttl: cfg.ttl,
        stop: &stop,
        action: ReasonAction {
            sigma,
            canon,
            plans: &plans,
            goal,
            pipeline: cfg.pipeline,
            eq0: &eq0,
            stop: &stop,
            log: (p > 1).then(DeltaLog::default),
            terminal: Mutex::new(None),
        },
    };

    let run = run_task(&task, units, p, &stop, &cfg.budget, cfg.trace, &mut metrics);
    let mut workers: Vec<ReasonWorker> = Vec::with_capacity(run.workers.len());
    for w in run.workers {
        metrics.matches += w.matches;
        metrics.pending += w.state.engine.stats.pending_registered;
        metrics.rechecks += w.state.engine.stats.rechecks;
        workers.push(w.state);
    }

    let ReasonAction { log, terminal, .. } = task.action;
    let mut terminal = terminal.into_inner();
    metrics.early_terminated = terminal.is_some();

    // A degraded run (deadline, unit budget, panic abort) did not reach
    // the fixpoint: its caught-up state must never be read as a model. Any
    // terminal event found on the way — enforcement is monotone, so a
    // conflict derived from partial work is still definitive — survives.
    let mut engine = None;
    if terminal.is_none() && !workers.is_empty() {
        let caught_up = log
            .as_ref()
            .map_or(Ok(()), |log| catch_up(sigma, log, &mut workers));
        match caught_up {
            Err(c) => terminal = Some(TerminalEvent::Conflict(c)),
            Ok(()) => {
                let first = workers.swap_remove(0).engine;
                let deduced = matches!(goal, Goal::Imp(phi)
                    if consequence_deducible_on(&first.eq, &canon.index, phi));
                if deduced {
                    terminal = Some(TerminalEvent::Consequence);
                } else if run.interrupt.is_none() {
                    engine = Some(first);
                }
            }
        }
    }
    if let Some(log) = log {
        metrics.delta_ops_broadcast = log.segments.into_inner().0.len() as u64;
    }

    cfg.budget.stamp(start, &mut metrics);
    ReasonRun {
        terminal,
        engine,
        sched_outcome: run.outcome,
        metrics,
    }
}

/// Read the log to its end once the workers are joined: each engine in
/// turn applies the foreign ops past its cursor, cascading its own
/// pendings, and appends what that enforced, until a whole pass appends
/// nothing. Every engine then holds the global fixpoint (DESIGN.md §4).
fn catch_up(sigma: &DepSet, log: &DeltaLog, workers: &mut [ReasonWorker]) -> Result<(), Conflict> {
    // One thread, after the join: the count needs no ordering.
    loop {
        let before = log.published.load(Ordering::Relaxed);
        for w in workers.iter_mut() {
            w.read(sigma, log)?;
            w.publish(Some(log));
        }
        if log.published.load(Ordering::Relaxed) == before {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eq::tests::materialized_classes;
    use crate::error::AttrKey;
    use crate::literal::Literal;
    use gfd_graph::{AttrId, ValueId, VarId, Vocab};
    use proptest::prelude::*;

    /// Matches dealt to workers: per worker, `(rule, node)` pairs of
    /// one-node rules, so each match is `[node]`.
    type Dealt = [Vec<(GfdId, NodeId)>];

    /// Rules over a one-node pattern `x`.
    struct Fixture {
        sigma: DepSet,
        vocab: Vocab,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                sigma: DepSet::new(),
                vocab: Vocab::new(),
            }
        }

        /// `premise attr = 1 → consequence attr = value`.
        fn rule(&mut self, premise: Option<&str>, consequence: &str, value: i64) -> GfdId {
            let x = VarId::new(0);
            let premise = premise.map(|a| Literal::eq_const(x, self.attr(a), 1i64));
            let consequence = Literal::eq_const(x, self.attr(consequence), value);
            self.push(premise.into_iter().collect(), consequence)
        }

        fn push(&mut self, premise: Vec<Literal>, consequence: Literal) -> GfdId {
            let mut p = Pattern::new();
            p.add_node(self.vocab.label("t"), "x");
            let name = format!("g{}", self.sigma.len());
            self.sigma
                .push(Dependency::new(name, p, premise, vec![consequence]))
        }

        fn attr(&mut self, name: &str) -> AttrId {
            self.vocab.attr(name)
        }
    }

    /// The relation's materialized classes with their members sorted: what
    /// two relations holding the same ops share, whatever order the ops
    /// arrived in (slot order follows that history).
    fn relation(eq: &mut EqRel) -> Vec<(Option<ValueId>, Vec<AttrKey>)> {
        let mut classes = materialized_classes(eq);
        classes.iter_mut().for_each(|(_, members)| members.sort());
        classes
    }

    /// Worker `id` after it processed `matches` in order, having heard
    /// nothing from its peers and published nothing.
    fn worker(id: usize, sigma: &DepSet, matches: &[(GfdId, NodeId)]) -> ReasonWorker {
        let mut w = ReasonWorker {
            id,
            ..ReasonWorker::default()
        };
        for &(g, n) in matches {
            w.engine.process_match(sigma, g, &[n]).unwrap();
        }
        w
    }

    /// The convergence oracle, sharing nothing with the log: each worker's
    /// matches processed alone, keeping every op it enforced; then, in a
    /// fresh engine, every worker's ops, then every worker's unresolved
    /// pending matches.
    fn fresh_replay(sigma: &DepSet, dealt: &Dealt) -> Result<EnforceEngine, Conflict> {
        let mut engine = EnforceEngine::new();
        let mut peers = Vec::new();
        for matches in dealt {
            let mut peer = EnforceEngine::new();
            for &(g, n) in matches {
                peer.process_match(sigma, g, &[n])?;
            }
            engine.apply_remote_ops(sigma, &peer.delta)?;
            peers.push(peer);
        }
        for peer in &peers {
            for (gfd, m) in peer.unresolved() {
                engine.process_match(sigma, gfd, m)?;
            }
        }
        Ok(engine)
    }

    /// The in-flight `ΔEq` window of DESIGN.md §4, two hops deep: worker
    /// 0's pending `a=1 → b=1` waits on an op only worker 1 holds, and
    /// worker 1's pending `b=1 → c=1` waits on what that recheck enforces.
    /// Whichever engine comes first in a catch-up pass, both reach the
    /// relation the fresh replay reaches.
    #[test]
    fn catch_up_closes_a_two_hop_window_from_either_engine_first() {
        let mut f = Fixture::new();
        let a_to_b = f.rule(Some("a"), "b", 1);
        let b_to_c = f.rule(Some("b"), "c", 1);
        let seed_a = f.rule(None, "a", 1);
        let n0 = NodeId::new(0);
        let dealt = [vec![(a_to_b, n0)], vec![(seed_a, n0), (b_to_c, n0)]];
        let mut expect = fresh_replay(&f.sigma, &dealt).unwrap();
        let expect = relation(&mut expect.eq);
        let c = (n0, f.attr("c"));
        for first in 0..2 {
            let mut workers: Vec<ReasonWorker> = (dealt.iter().enumerate())
                .map(|(id, matches)| worker(id, &f.sigma, matches))
                .collect();
            assert!(workers.iter().all(|w| w.engine.pending_count() == 1));
            workers.rotate_left(first);
            catch_up(&f.sigma, &DeltaLog::default(), &mut workers).unwrap();
            for w in &mut workers {
                assert!(
                    w.engine.eq.deduces_const(c, ValueId::of(1i64)),
                    "first={first}"
                );
                assert_eq!(w.engine.pending_count(), 0, "first={first}");
                assert_eq!(relation(&mut w.engine.eq), expect, "first={first}");
            }
        }
    }

    /// A conflict no worker saw: worker 0 bound `b = 2` and parked
    /// `a=1 → b=1`; worker 1 bound `a = 1`. Only the catch-up brings the
    /// two together — whichever engine comes first in a pass — and the
    /// conflict names the rule that fired.
    #[test]
    fn catch_up_conflict_is_attributed_to_its_rule() {
        let mut f = Fixture::new();
        let a_to_b = f.rule(Some("a"), "b", 1);
        let b_is_2 = f.rule(None, "b", 2);
        let a_is_1 = f.rule(None, "a", 1);
        let n0 = NodeId::new(0);
        let dealt = [vec![(a_to_b, n0), (b_is_2, n0)], vec![(a_is_1, n0)]];
        assert!(fresh_replay(&f.sigma, &dealt).is_err());
        for first in 0..2 {
            let mut workers: Vec<ReasonWorker> = (dealt.iter().enumerate())
                .map(|(id, matches)| worker(id, &f.sigma, matches))
                .collect();
            workers.rotate_left(first);
            let conflict = catch_up(&f.sigma, &DeltaLog::default(), &mut workers).unwrap_err();
            assert_eq!(conflict.gfd, Some(a_to_b), "first={first}");
            assert_eq!(conflict.key, (n0, f.attr("b")));
        }
    }

    /// A literal over the variable of a one-node rule, on attributes
    /// `a0..a2`: `x.aI = v` or `x.aI = x.aJ`.
    #[derive(Clone, Debug)]
    enum Lit {
        Const(usize, i64),
        Attr(usize, usize),
    }

    impl Lit {
        fn literal(&self, f: &mut Fixture) -> Literal {
            let x = VarId::new(0);
            let mut attr = |i: usize| f.attr(&format!("a{i}"));
            match *self {
                Lit::Const(a, v) => Literal::eq_const(x, attr(a), v),
                Lit::Attr(a, b) => Literal::eq_attr(x, attr(a), x, attr(b)),
            }
        }
    }

    fn arb_lit() -> impl Strategy<Value = Lit> {
        prop_oneof![
            (0..3usize, 0..2i64).prop_map(|(a, v)| Lit::Const(a, v)),
            (0..3usize, 0..3usize).prop_map(|(a, b)| Lit::Attr(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random one-node rules, their matches dealt to 2–4 workers, and
        /// a random schedule of the workers' run: process a match, publish,
        /// read. Then each worker processes the rest of its matches, so
        /// some ops are in flight at quiescence. After the catch-up every
        /// engine's relation is the fresh replay's, and a conflict — raised
        /// mid-run or in the catch-up — is reported exactly when the fresh
        /// replay reports one.
        #[test]
        fn catch_up_reaches_the_fresh_replay(
            rules in proptest::collection::vec(
                (proptest::collection::vec(arb_lit(), 0..3), arb_lit()),
                1..6,
            ),
            matches in proptest::collection::vec((0..6usize, 0..2usize, 0..4usize), 0..16),
            engines in 2..5usize,
            steps in proptest::collection::vec((0..4usize, 0..3u8), 0..40),
        ) {
            let mut f = Fixture::new();
            let ids: Vec<GfdId> = (rules.iter())
                .map(|(premise, consequence)| {
                    let premise = premise.iter().map(|l| l.literal(&mut f)).collect();
                    let consequence = consequence.literal(&mut f);
                    f.push(premise, consequence)
                })
                .collect();
            let mut dealt = vec![Vec::new(); engines];
            for (r, n, e) in matches {
                dealt[e % engines].push((ids[r % ids.len()], NodeId::new(n)));
            }
            let expect = fresh_replay(&f.sigma, &dealt);

            let log = DeltaLog::default();
            let mut workers: Vec<ReasonWorker> = (0..engines)
                .map(|id| ReasonWorker { id, ..ReasonWorker::default() })
                .collect();
            let mut next = vec![0; engines];
            let rest = (0..engines).flat_map(|e| std::iter::repeat_n((e, 0), dealt[e].len()));
            let schedule = steps.iter().map(|&(e, kind)| (e % engines, kind)).chain(rest);
            let run = || -> Result<(), Conflict> {
                for (e, kind) in schedule {
                    let w = &mut workers[e];
                    match kind {
                        0 => {
                            if let Some(&(g, n)) = dealt[e].get(next[e]) {
                                next[e] += 1;
                                w.engine.process_match(&f.sigma, g, &[n])?;
                            }
                        }
                        1 => w.publish(Some(&log)),
                        _ => w.read(&f.sigma, &log)?,
                    }
                }
                catch_up(&f.sigma, &log, &mut workers)
            };
            match (run(), expect) {
                (Ok(()), Ok(mut expect)) => {
                    let expect = relation(&mut expect.eq);
                    for w in &mut workers {
                        prop_assert_eq!(relation(&mut w.engine.eq), expect.clone());
                    }
                }
                (Err(_), Err(_)) => {}
                (run, expect) => prop_assert!(
                    false,
                    "catch-up conflict {:?}, fresh replay conflict {:?}",
                    run.err(),
                    expect.err()
                ),
            }
        }
    }
}
