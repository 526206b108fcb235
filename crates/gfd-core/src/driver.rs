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
//! * **asynchronous `ΔEq` broadcast** — after each TTL slice a worker
//!   ships the ops recorded since its last broadcast to every peer as one
//!   shared `Arc<[EqOp]>` payload (a single allocation however many peers
//!   there are), and drains its own inbox before each unit and when idle;
//! * **early termination** — a conflict, or for implication a deduced
//!   consequence, raises the scheduler's stop flag;
//! * **final convergence** — after quiescence the other workers' op logs
//!   and unresolved pending matches are replayed into the engine with the
//!   longest log and the (cheap, match-free) enforcement fixpoint is run.
//!   This closes the window where a pending premise was satisfied by a
//!   `ΔEq` that arrived after its worker went idle — required for
//!   exactness (DESIGN.md §7).
//!
//! The sequential algorithms are the `workers = 1` instantiation of the
//! same task: the peer list is empty so broadcast is naturally a no-op,
//! the single engine already *is* the global fixpoint (nothing to
//! replay), and the scheduler runs the one worker inline on the calling
//! thread. Sequential and parallel reasoning therefore cannot drift
//! semantically — they are the same code path.

use crate::budget::{run_task, Budget};
use crate::canonical::{build_plans_lazy, consequence_deducible_on, CanonicalGraph};
use crate::dependency::{DepSet, Dependency};
use crate::enforce::EnforceEngine;
use crate::engine::{MatchAction, Members, SearchTask};
use crate::eq::{EqOp, EqRel};
use crate::error::Conflict;
use crate::unit::{generate_units, order_units};
use crossbeam_channel::{unbounded, Receiver, Sender};
use gfd_graph::{GfdId, NodeId, Pattern};
use gfd_match::{Match, MatchPlan};
use gfd_runtime::{RunMetrics, RunOutcome as SchedOutcome, TraceSpec};
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// A run-ending event raised by a worker or the final convergence phase.
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
    /// The merged engine after the convergence phase (absent when the run
    /// terminated early or was degraded by its budget).
    pub engine: Option<EnforceEngine>,
    /// How the scheduler run ended. Anything other than `Completed` /
    /// `Stopped` means the fixpoint was not reached: a missing terminal
    /// event then maps to an *unknown* outcome, never a definite one.
    pub sched_outcome: SchedOutcome,
    /// Run counters.
    pub metrics: RunMetrics,
}

/// One `ΔEq` broadcast payload: the ops a worker recorded since its last
/// broadcast, shared across all peers as a single allocation.
type DeltaPayload = Arc<[EqOp]>;

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
    /// `ΔEq` broadcast mesh: sender `i` feeds worker `i`'s inbox. Each
    /// worker takes its receiver out of the slot at startup.
    delta_txs: Vec<Sender<DeltaPayload>>,
    delta_rxs: Mutex<Vec<Option<Receiver<DeltaPayload>>>>,
    /// First terminal event raised anywhere in the run.
    terminal: Mutex<Option<TerminalEvent>>,
}

/// Per-worker reasoning state.
struct ReasonWorker {
    engine: EnforceEngine,
    rx_delta: Option<Receiver<DeltaPayload>>,
    tx_peers: Vec<Sender<DeltaPayload>>,
    broadcast_cursor: usize,
    last_y_version: u64,
    /// This worker already raised a terminal event; stop doing work.
    done: bool,
    /// The `*np` ablation's matches of the search in progress.
    buffered: Vec<Match>,
    ops_sent: u64,
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

    /// Apply queued remote deltas (cascading local pending rechecks), then
    /// re-test the consequence for implication goals.
    fn apply_inbox(&self, w: &mut ReasonWorker) {
        if let Some(rx) = &w.rx_delta {
            while let Ok(ops) = rx.try_recv() {
                if let Err(c) = w.engine.apply_remote_ops(self.sigma, &ops) {
                    self.terminal(w, TerminalEvent::Conflict(c));
                    return;
                }
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
            if consequence_deducible_on(&mut w.engine.eq, &self.canon.index, phi) {
                self.terminal(w, TerminalEvent::Consequence);
            }
        }
    }

    /// Ship ops recorded since the last broadcast to every peer. The
    /// payload is shared as one `Arc<[EqOp]>`: a single allocation however
    /// many peers there are.
    fn broadcast(&self, w: &mut ReasonWorker) {
        if w.tx_peers.is_empty() {
            return;
        }
        let new = w.engine.delta_since(w.broadcast_cursor);
        if new.is_empty() {
            return;
        }
        let ops: DeltaPayload = Arc::from(new);
        w.broadcast_cursor = w.engine.delta_len();
        w.ops_sent += ops.len() as u64;
        for tx in &w.tx_peers {
            let _ = tx.send(Arc::clone(&ops));
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
        let rx_delta = self.delta_rxs.lock()[id].take();
        let tx_peers = self
            .delta_txs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != id)
            .map(|(_, tx)| tx.clone())
            .collect();
        ReasonWorker {
            engine: EnforceEngine::with_eq(self.eq0.clone()),
            rx_delta,
            tx_peers,
            broadcast_cursor: 0,
            last_y_version: 0,
            done: false,
            buffered: Vec::new(),
            ops_sent: 0,
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
        self.apply_inbox(w);
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

    /// Broadcast between TTL periods, so long units still propagate their
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
        self.broadcast(w);
    }

    fn on_idle(&self, w: &mut ReasonWorker) {
        self.apply_inbox(w);
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
    let mut delta_txs = Vec::with_capacity(p);
    let mut delta_rxs = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded::<DeltaPayload>();
        delta_txs.push(tx);
        delta_rxs.push(Some(rx));
    }
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
            delta_txs,
            delta_rxs: Mutex::new(delta_rxs),
            terminal: Mutex::new(None),
        },
    };

    let run = run_task(&task, units, p, &stop, &cfg.budget, cfg.trace, &mut metrics);
    let mut engines: Vec<EnforceEngine> = Vec::with_capacity(run.workers.len());
    for w in run.workers {
        metrics.matches += w.matches;
        metrics.delta_ops_broadcast += w.state.ops_sent;
        metrics.pending += w.state.engine.stats.pending_registered;
        metrics.rechecks += w.state.engine.stats.rechecks;
        engines.push(w.state.engine);
    }

    let mut terminal = task.action.terminal.into_inner();
    metrics.early_terminated = terminal.is_some();

    // A degraded run (deadline, unit budget, panic abort) did not reach
    // the fixpoint: its merged state must never be read as a model. Any
    // terminal event found on the way — enforcement is monotone, so a
    // conflict derived from partial work is still definitive — survives.
    let mut engine = None;
    if terminal.is_none() && !engines.is_empty() {
        match converge(sigma, engines) {
            Err(c) => terminal = Some(TerminalEvent::Conflict(c)),
            Ok(mut merged) => {
                let deduced = matches!(goal, Goal::Imp(phi)
                    if consequence_deducible_on(&mut merged.eq, &canon.index, phi));
                if deduced {
                    terminal = Some(TerminalEvent::Consequence);
                } else if run.interrupt.is_none() {
                    engine = Some(merged);
                }
            }
        }
    }

    cfg.budget.stamp(start, &mut metrics);
    ReasonRun {
        terminal,
        engine,
        sched_outcome: run.outcome,
        metrics,
    }
}

/// The final convergence phase: fold the workers' engines into one that
/// holds every op and every unresolved pending match, at its fixpoint —
/// any enforcement that any interleaving could have produced is
/// reproduced here (DESIGN.md §7).
///
/// The merge is seeded with the engine holding the longest log, not a
/// fresh one: that engine's own ops are applied and its own pendings
/// registered with live watchers already, so only the *other* engines'
/// logs and unresolved pendings are replayed into it. Ops are idempotent,
/// and a replayed op wakes the seed's pendings exactly as a remote `ΔEq`
/// does mid-run. A lone engine (one worker, no peers) already is the
/// global fixpoint and comes back as it is.
fn converge(sigma: &DepSet, mut engines: Vec<EnforceEngine>) -> Result<EnforceEngine, Conflict> {
    let longest = (0..engines.len())
        .max_by_key(|&i| engines[i].delta_len())
        .expect("one engine per worker");
    let mut merged = engines.remove(longest);
    for engine in &engines {
        merged.apply_remote_ops(sigma, engine.delta_since(0))?;
    }
    for (gfd, m) in engines.iter().flat_map(EnforceEngine::unresolved) {
        merged.process_match(sigma, gfd, m)?;
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eq::tests::materialized_classes;
    use crate::literal::Literal;
    use gfd_graph::{AttrId, ValueId, VarId, Vocab};

    /// Rules over a one-node pattern, so every match is `[n0]`:
    /// `premise attr = 1 → consequence attr = value`.
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

        fn rule(&mut self, premise: Option<&str>, consequence: &str, value: i64) -> GfdId {
            let x = VarId::new(0);
            let mut p = Pattern::new();
            p.add_node(self.vocab.label("t"), "x");
            let premise = premise.map(|a| Literal::eq_const(x, self.vocab.attr(a), 1i64));
            let consequence = vec![Literal::eq_const(x, self.vocab.attr(consequence), value)];
            let name = format!("g{}", self.sigma.len());
            self.sigma.push(Dependency::new(
                name,
                p,
                premise.into_iter().collect(),
                consequence,
            ))
        }

        fn attr(&mut self, name: &str) -> AttrId {
            self.vocab.attr(name)
        }
    }

    /// A worker's engine after it processed `rules` at `[n0]`, in order,
    /// having heard nothing from its peers.
    fn worker(sigma: &DepSet, rules: &[GfdId]) -> EnforceEngine {
        let mut engine = EnforceEngine::new();
        for &g in rules {
            engine.process_match(sigma, g, &[NodeId::new(0)]).unwrap();
        }
        engine
    }

    /// The convergence phase before the merge was seeded, as it was: every
    /// log, then every unresolved pending, replayed into a fresh engine.
    fn fresh_replay(
        sigma: &DepSet,
        engines: Vec<EnforceEngine>,
    ) -> Result<EnforceEngine, Conflict> {
        let mut engine = EnforceEngine::new();
        for peer in &engines {
            engine.apply_remote_ops(sigma, peer.delta_since(0))?;
        }
        for peer in &engines {
            for (gfd, m) in peer.unresolved() {
                engine.process_match(sigma, gfd, m)?;
            }
        }
        Ok(engine)
    }

    /// The in-flight `ΔEq` window of DESIGN.md §4, two hops deep: worker
    /// 0's pending `a=1 → b=1` waits on an op only worker 1 holds, and
    /// worker 1's pending `b=1 → c=1` waits on what that recheck enforces.
    /// `pad` lengthens worker 0's log so that it, not worker 1, is the
    /// seed: whichever engine seeds the merge, it reaches the relation the
    /// fresh-engine replay reaches.
    #[test]
    fn seeded_merge_closes_a_two_hop_window_from_either_seed() {
        for pad in [false, true] {
            let mut f = Fixture::new();
            let a_to_b = f.rule(Some("a"), "b", 1);
            let b_to_c = f.rule(Some("b"), "c", 1);
            let seed_a = f.rule(None, "a", 1);
            let pads = [f.rule(None, "d", 1), f.rule(None, "e", 1)];
            let mut w0 = vec![a_to_b];
            w0.extend(pads.iter().filter(|_| pad));
            let engines = || vec![worker(&f.sigma, &w0), worker(&f.sigma, &[seed_a, b_to_c])];
            assert_eq!(engines()[0].delta_len() > engines()[1].delta_len(), pad);
            assert!(engines().iter().all(|e| e.pending_count() == 1));

            let mut merged = converge(&f.sigma, engines()).unwrap();
            let mut expect = fresh_replay(&f.sigma, engines()).unwrap();
            let c = (NodeId::new(0), f.attr("c"));
            assert!(merged.eq.deduces_const(c, ValueId::of(1i64)), "pad={pad}");
            assert_eq!(merged.pending_count(), 0, "pad={pad}");
            assert_eq!(
                materialized_classes(&mut merged.eq),
                materialized_classes(&mut expect.eq),
                "pad={pad}"
            );
        }
    }

    /// A conflict no worker saw: worker 0 bound `b = 2` and parked
    /// `a=1 → b=1`; worker 1 bound `a = 1`. Only the merge brings the two
    /// together, and the conflict names the rule that fired.
    #[test]
    fn merge_only_conflict_is_attributed_to_its_rule() {
        for pad in [false, true] {
            let mut f = Fixture::new();
            let a_to_b = f.rule(Some("a"), "b", 1);
            let b_is_2 = f.rule(None, "b", 2);
            let a_is_1 = f.rule(None, "a", 1);
            let pads = [f.rule(None, "d", 1), f.rule(None, "e", 1)];
            let mut w0 = vec![a_to_b, b_is_2];
            w0.extend(pads.iter().filter(|_| pad));
            let engines = vec![worker(&f.sigma, &w0), worker(&f.sigma, &[a_is_1])];
            // Worker 0's log is the longer one exactly when padded (a tie
            // goes to the later engine).
            assert_eq!(engines[0].delta_len() > engines[1].delta_len(), pad);
            let conflict = converge(&f.sigma, engines).unwrap_err();
            assert_eq!(conflict.gfd, Some(a_to_b), "pad={pad}");
            assert_eq!(conflict.key, (NodeId::new(0), f.attr("b")));
        }
    }
}
