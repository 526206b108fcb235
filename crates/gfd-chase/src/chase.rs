//! A deliberately *naive* chase engine over canonical graphs.
//!
//! This is the baseline the paper compares against (`ParImpRDF`, following
//! Hellings et al.'s chase for RDF FDs): a round-based fixpoint with **no**
//! dependency ordering, **no** inverted pending index, and **no** early
//! consequence cut inside a round — every premise match that has not fired
//! yet is re-evaluated every round. Same answers as `SeqSat`/`SeqImp`,
//! strictly more work — which is exactly the point of the comparison in
//! Fig. 5 and Fig. 6(f).
//!
//! What it is *not* naive about is doing the same thing twice. It is a
//! chase in the textbook sense — a trigger, once applied, is never active
//! again:
//!
//! * a premise match is **enumerated once**: each rule's matches live in an
//!   append-only `MatchTable`, and a round that grew the topology
//!   re-freezes the index and appends only the matches that use a node or
//!   edge that round generated (`MatchTable::extend`);
//! * a row is **scanned until it fires**, then retired: enforcement is
//!   monotone, so a committed literal firing could only ever re-apply as a
//!   no-op — any later conflict on its classes is raised by the bind or
//!   merge that causes it — and a generating firing is materialized (or
//!   found realized) at most once by definition;
//! * a firing is **checked and committed once**, straight from its rule
//!   and row: no per-firing mutation buffer is built.
//!
//! There is one chase, [`dep_chase_with_config`], over a [`DepSet`]: a GFD
//! is a [`gfd_core::Dependency`] with a literal consequence, so the
//! literal-only baseline (`chase_sat` / `chase_imp`) is the special case
//! that never materializes a node. Each round's
//! **premise scan** runs as a [`Task`] on the shared `gfd-runtime`
//! scheduler: the live rows are chunked into scan units, every
//! worker reads the round-start relation in place (premise evaluation
//! and realization checks never write it, so nothing is copied) and
//! realization-checks each generating row that
//! fires on the spot — a trigger is active when its premise holds *and*
//! its target is not yet realized, one test against one snapshot — and
//! the fired `(rule, row)` pairs are committed **in deterministic
//! order** between rounds.
//! A premise that a mid-round enforcement would have unlocked simply
//! fires one round later — the fixpoint (and any conflict) is unchanged
//! because enforcement is monotone, while the round structure the
//! baseline is *supposed* to pay for is preserved. Snapshot semantics
//! hold at every worker count (including the sequential `workers = 1`),
//! so [`ChaseStats`] round/eval counts are identical across `p`.
//!
//! A run ends in a fixpoint, a conflict, or an [`Interrupt`]: the
//! fresh-node budget is one more interrupt, not a separate kind of answer.

use gfd_core::{
    eval_premise, generate_deducible, run_task, AttrKey, Budget, Conflict, Consequence, DepSet,
    Dependency, EqRel, Interrupt, Literal, Operand, PremiseStatus,
};
use gfd_graph::{GfdId, Graph, LabelId, LabelIndex, NodeId, Pattern, VarId};
use gfd_match::{for_each_match, HomSearch, MatchPlan, SearchLimits};
use gfd_runtime::sched::{Task, WorkerCtx};
use gfd_runtime::{failpoint, EventKind, RunMetrics, TraceBuf, CONTROL_WORKER};
use std::ops::ControlFlow;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Scheduler knobs of the chase baseline.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Worker threads; `1` runs the scan inline on the calling thread.
    pub workers: usize,
    /// Straggler threshold for one scan unit: past it, the unit's
    /// remaining matches are split for idle workers to steal.
    pub ttl: Duration,
    /// Matches per initial scan unit.
    pub batch: usize,
    /// Termination guard for generating dependencies: the chase gives up
    /// (reporting "unknown" instead of looping forever) once this many
    /// fresh nodes have been materialized. GGD chains like
    /// `person → CREATE person` have no finite fixpoint; the budget bounds
    /// them the way `max_branches` bounds the GED search (DESIGN.md §10).
    /// Irrelevant to literal-only rule sets.
    pub max_generated_nodes: u64,
    /// Unified resource budget (DESIGN.md §11.2): the deadline is checked
    /// at round boundaries and inside the scan via the scheduler, the unit
    /// cap across all rounds. Exhaustion degrades to an `Interrupted`
    /// outcome — the chase never claims a fixpoint it did not reach.
    pub budget: Budget,
    /// Structured tracing (DESIGN.md §13): per-rule scan spans on the
    /// scheduler workers, `ChaseRound`/`ApplyPlan`/`ApplyCommit` phase
    /// spans on the control track. Off by default.
    pub trace: gfd_runtime::TraceSpec,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            workers: 1,
            ttl: Duration::from_millis(100),
            batch: 256,
            max_generated_nodes: 100_000,
            budget: Budget::unlimited(),
            trace: gfd_runtime::TraceSpec::disabled(),
        }
    }
}

impl ChaseConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ChaseConfig {
            workers,
            ..Self::default()
        }
    }

    /// Attach a unified resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Counters reported by the chase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaseStats {
    /// Fixpoint rounds executed.
    pub rounds: u64,
    /// Premise evaluations across all rounds: one per *live* row per round
    /// (the re-scanning overhead — a row is re-evaluated every round until
    /// it fires, never after).
    pub premise_evals: u64,
    /// Matches enumerated = rows appended to the match tables. Each
    /// distinct premise match is enumerated once: up front, or in the
    /// round whose materialization made it possible. Also booked as
    /// `RunMetrics::matches`.
    pub matches_enumerated: u64,
    /// Fresh nodes materialized by generating consequences (zero for
    /// literal-only rule sets).
    pub generated_nodes: u64,
    /// Realization checks run against round-start snapshots, by the scan:
    /// one per generating firing.
    pub realization_checks: u64,
    /// Of those checks, the firings found already realized (nothing to
    /// commit). `apply_independent + apply_conflicts + realized` is the
    /// number of distinct `(rule, row)` firings of the run.
    pub realized: u64,
    /// Firings committed from the parallel-independent set of the round's
    /// conflict partition (DESIGN.md §12.2).
    pub apply_independent: u64,
    /// Firings committed whose touched classes or nodes overlapped an
    /// earlier firing of the same round.
    pub apply_conflicts: u64,
    /// Wall time spent in premise scans, across all rounds — the
    /// realization checks of the generating firings included.
    pub scan_time: Duration,
    /// Wall time spent partitioning and committing the fired rows, across
    /// all completed apply phases (a round cut short mid-apply is not
    /// booked).
    pub apply_time: Duration,
}

/// What one round's commit walk added to the topology — what the next
/// round's new premise matches must use.
struct Growth {
    /// Node count before the walk: ids from here on are the round's fresh
    /// nodes.
    first_new: usize,
    /// Generated edges that join two nodes older than the round and were
    /// not there before it, sorted. (An edge with a fresh endpoint needs
    /// no entry: a match using it maps a variable onto that fresh node.)
    edges: Vec<(NodeId, LabelId, NodeId)>,
    /// The endpoints of `edges`, sorted and duplicate-free: with the fresh
    /// nodes, the round's dirty set.
    touched: Vec<NodeId>,
}

impl Growth {
    fn new(first_new: usize, mut edges: Vec<(NodeId, LabelId, NodeId)>) -> Self {
        edges.sort_unstable();
        let mut touched: Vec<NodeId> = edges.iter().flat_map(|&(s, _, d)| [s, d]).collect();
        touched.sort_unstable();
        touched.dedup();
        Growth {
            first_new,
            edges,
            touched,
        }
    }

    fn is_dirty(&self, n: NodeId) -> bool {
        n.index() >= self.first_new || self.touched.binary_search(&n).is_ok()
    }

    /// Did match `m` of `pattern` in the grown `graph` not exist before the
    /// round? It did not iff it maps a variable onto a fresh node or a
    /// pattern edge onto nothing but edges of this round.
    fn made(&self, graph: &Graph, pattern: &Pattern, m: &[NodeId]) -> bool {
        m.iter().any(|n| n.index() >= self.first_new)
            || pattern.edges().iter().any(|e| {
                let (s, d) = (m[e.src.index()], m[e.dst.index()]);
                !graph.out_edges(s).iter().any(|&(l, t)| {
                    t == d
                        && e.label.pattern_matches(l)
                        && self.edges.binary_search(&(s, l, d)).is_err()
                })
            })
    }
}

/// One rule's premise matches as a flat strided table — row `i` is
/// `nodes[i * arity..][..arity]` — filled straight from the matcher's lent
/// callback. Append-only: a match is enumerated once, when the topology it
/// uses first exists, and its row keeps its index for the life of the run,
/// so `(rule, row)` names one firing across rounds and is the
/// deterministic commit order.
struct MatchTable {
    arity: usize,
    nodes: Vec<NodeId>,
    /// The rows not yet retired, ascending — what a round's scan
    /// evaluates. A row retires in the round it fires ([`retire`]).
    live: Vec<u32>,
}

impl MatchTable {
    /// Every match of `pattern` in `graph`, in the matcher's order.
    fn enumerate(graph: &Graph, index: &LabelIndex, pattern: &Pattern) -> Self {
        let mut table = MatchTable {
            arity: pattern.node_count(),
            nodes: Vec::new(),
            live: Vec::new(),
        };
        for_each_match(graph, index, pattern, |m| {
            table.push(m);
            ControlFlow::Continue(())
        });
        table
    }

    /// Append the matches of `pattern` that `growth` made, each once;
    /// returns how many. A new match maps some variable onto a dirty node
    /// (a fresh one, or an endpoint of a new edge between old nodes), so
    /// pivoting every variable on every dirty node of its label finds them
    /// all — the `gfd-incr` frontier argument, with the matcher's anchored
    /// expansion bounding the walk to the pattern radius. A match found
    /// from several pivots is kept from its *first* dirty variable only.
    /// Pivots are visited in (variable, node id) order on the calling
    /// thread, so the appended order is the same at every worker count.
    fn extend(
        &mut self,
        graph: &Graph,
        index: &LabelIndex,
        pattern: &Pattern,
        growth: &Growth,
    ) -> u64 {
        let before = self.len();
        for v in pattern.vars() {
            let label = pattern.label(v);
            let cands = index.candidates(label);
            let fresh = &cands[cands.partition_point(|n| n.index() < growth.first_new)..];
            let mut pivots = growth
                .touched
                .iter()
                .filter(|&&n| label.pattern_matches(graph.label(n)))
                .chain(fresh)
                .peekable();
            if pivots.peek().is_none() {
                continue;
            }
            let plan = MatchPlan::build(pattern, Some(v), Some(index));
            let mut search = HomSearch::new(graph, index, pattern, &plan);
            for &z in pivots {
                search.reset(&[z]);
                search.run(
                    |m| {
                        if !m[..v.index()].iter().any(|&n| growth.is_dirty(n))
                            && growth.made(graph, pattern, m)
                        {
                            self.push(m);
                        }
                        ControlFlow::Continue(())
                    },
                    SearchLimits::none(),
                );
            }
        }
        (self.len() - before) as u64
    }

    fn push(&mut self, m: &[NodeId]) {
        self.live.push(self.len() as u32);
        self.nodes.extend_from_slice(m);
    }

    fn len(&self) -> usize {
        self.nodes.len().checked_div(self.arity).unwrap_or(0)
    }

    fn get(&self, i: usize) -> &[NodeId] {
        &self.nodes[i * self.arity..][..self.arity]
    }
}

/// One fired row of a round: `(rule, row, realized)`, where `realized`
/// says that the round-start state already realizes a generating rule's
/// target (always `false` for a literal rule).
type Firing = (u32, u32, bool);

/// Retire the round's fired rows (sorted by `(rule, row)`): every one of
/// them was committed or found realized, and a trigger, once applied, is
/// never active again.
fn retire(tables: &mut [MatchTable], fired: &[Firing]) {
    for run in fired.chunk_by(|a, b| a.0 == b.0) {
        let mut rows = run.iter().map(|f| f.1).peekable();
        let live = &mut tables[run[0].0 as usize].live;
        live.retain(|row| rows.next_if_eq(row).is_none());
    }
}

/// Cut `0..len` into ranges of at most `batch` items.
fn batches(len: usize, batch: usize) -> impl Iterator<Item = (u32, u32)> {
    (0..len)
        .step_by(batch.max(1))
        .map(move |s| (s as u32, (s + batch.max(1)).min(len) as u32))
}

/// How many rows of a scan unit run between polls of the straggler
/// deadline: one clock read per stride, not per row — what `gfd-match`'s
/// search loop does per `CHECK_INTERVAL` steps.
const POLL_STRIDE: u32 = 64;

/// A contiguous slice of one rule's live rows (positions in
/// [`MatchTable::live`]).
#[derive(Clone, Copy)]
struct ScanUnit {
    rule: u32,
    start: u32,
    end: u32,
}

/// Straggler hand-off, polled when `unit` has finished the row before
/// `next`: every [`POLL_STRIDE`] rows, if `deadline` has passed with
/// `next..end` still to do, offer that rest in two halves (the back half is
/// what an idle worker will steal) and tell the caller to end the unit.
fn offer_rest(ctx: &WorkerCtx<'_, ScanUnit>, deadline: Instant, unit: ScanUnit, next: u32) -> bool {
    let ScanUnit { rule, start, end } = unit;
    if next >= end || !(next - start).is_multiple_of(POLL_STRIDE) || Instant::now() < deadline {
        return false;
    }
    let mid = next + (end - next) / 2;
    let half = |start, end| ScanUnit { rule, start, end };
    let mut rest = vec![half(next, mid)];
    if mid < end {
        rest.push(half(mid, end));
    }
    ctx.split(rest);
    true
}

/// Per-worker scan state for one round.
struct ScanWorker {
    /// The rows whose premise the round-start relation satisfies.
    fired: Vec<Firing>,
    /// Scratch: a pending premise's keys, a realization check's extension.
    waiting: Vec<AttrKey>,
    asn: Vec<NodeId>,
    premise_evals: u64,
    realization_checks: u64,
}

/// One round's scan as a scheduler workload: each live row's premise, and
/// for a generating rule whose premise holds, its realization check — both
/// against the round-start relation and index, which every worker reads in
/// place; mutation happens only in the deterministic commit walk, which
/// needs nothing from the scan but the fired list.
struct ScanTask<'a> {
    rules: &'a [Dependency],
    tables: &'a [MatchTable],
    eq: &'a EqRel,
    index: &'a LabelIndex,
    ttl: Duration,
}

impl Task for ScanTask<'_> {
    type Unit = ScanUnit;
    type Worker = ScanWorker;

    fn worker(&self, _id: usize) -> ScanWorker {
        ScanWorker {
            fired: Vec::new(),
            waiting: Vec::new(),
            asn: Vec::new(),
            premise_evals: 0,
            realization_checks: 0,
        }
    }

    fn run_unit(&self, w: &mut ScanWorker, unit: ScanUnit, ctx: &WorkerCtx<'_, ScanUnit>) {
        let span = ctx.trace_start();
        let evals0 = w.premise_evals;
        let fired0 = w.fired.len() as u64;
        let rule = &self.rules[unit.rule as usize];
        let table = &self.tables[unit.rule as usize];
        let deadline = Instant::now() + self.ttl;
        for pos in unit.start..unit.end {
            let row = table.live[pos as usize];
            let m = table.get(row as usize);
            w.premise_evals += 1;
            let status = eval_premise(self.eq, &rule.premise, m, &mut w.waiting);
            if status == PremiseStatus::Satisfied {
                let realized = match &rule.consequence {
                    Consequence::Generate(gen) => {
                        w.realization_checks += 1;
                        generate_deducible(self.eq, self.index, gen, m, &mut w.asn)
                    }
                    Consequence::Literals(_) => false,
                };
                w.fired.push((unit.rule, row, realized));
            }
            if offer_rest(ctx, deadline, unit, pos + 1) {
                break;
            }
        }
        ctx.trace_span(
            EventKind::RuleEval,
            unit.rule,
            span,
            w.premise_evals - evals0,
            w.fired.len() as u64 - fired0,
        );
    }
}

/// Enforce one consequence literal at assignment `asn`; returns whether
/// the relation changed.
fn enforce(eq: &mut EqRel, lit: &Literal, asn: &[NodeId]) -> Result<bool, Conflict> {
    let k1 = (asn[lit.var.index()], lit.attr);
    match &lit.rhs {
        Operand::Const(c) => eq.bind(k1, *c),
        Operand::Attr(v2, a2) => eq.merge(k1, (asn[v2.index()], *a2)),
    }
}

/// Outcome of chasing a dependency set over a growable graph.
pub enum DepChaseOutcome {
    /// Fixpoint reached: the chased graph (base plus every materialized
    /// subgraph) and the final relation.
    Fixpoint {
        /// The chased graph.
        graph: Box<Graph>,
        /// The final equivalence relation.
        eq: Box<EqRel>,
    },
    /// Two distinct constants were forced onto one class.
    Conflict(Conflict),
    /// The run was cut short before the fixpoint — deadline, unit budget,
    /// an injected fault, or the fresh-node budget (`FreshNodes`, at
    /// [`ChaseStats::generated_nodes`]): no definite answer.
    Interrupted(Interrupt),
}

/// The state of one chase run, advanced a round at a time.
struct Chase<'a> {
    rules: &'a [Dependency],
    config: &'a ChaseConfig,
    graph: Graph,
    eq: EqRel,
    /// The frozen view of `graph` the matcher and the scan's realization
    /// checks read, rebuilt in place after every round that grew the
    /// topology — both only run between that freeze and the next commit
    /// walk.
    index: LabelIndex,
    /// Per rule, every premise match enumerated so far.
    tables: Vec<MatchTable>,
    /// The partition's claims, by root slot and by node id: the number of
    /// the partition (`stamp`) that last claimed each, so none is cleared.
    claimed_classes: Vec<u32>,
    claimed_nodes: Vec<u32>,
    stamp: u32,
    stats: ChaseStats,
    metrics: RunMetrics,
    /// The control-track ring buffer the run records its phase spans into
    /// (`ChaseRound`, `ApplyPlan`, `ApplyCommit` — DESIGN.md §13). The
    /// rounds run on the calling thread, outside any scheduler worker, so
    /// these spans carry [`CONTROL_WORKER`] and are absorbed into the
    /// run's merged trace when it finishes.
    ctl: TraceBuf,
}

impl<'a> Chase<'a> {
    /// Freeze `graph` and enumerate every rule's premise matches.
    fn new(rules: &'a [Dependency], graph: Graph, eq: EqRel, config: &'a ChaseConfig) -> Self {
        let index = LabelIndex::build(&graph);
        let tables: Vec<MatchTable> = rules
            .iter()
            .map(|rule| MatchTable::enumerate(&graph, &index, &rule.pattern))
            .collect();
        Chase {
            rules,
            config,
            stats: ChaseStats {
                matches_enumerated: tables.iter().map(|t| t.len() as u64).sum(),
                ..Default::default()
            },
            metrics: RunMetrics {
                workers: config.workers.max(1),
                ..Default::default()
            },
            ctl: TraceBuf::new(config.trace.control(), CONTROL_WORKER),
            graph,
            eq,
            index,
            tables,
            claimed_classes: Vec::new(),
            claimed_nodes: Vec::new(),
            stamp: 0,
        }
    }

    /// Dispatch one round's scan over the live rows on the shared
    /// scheduler. Returns the fired rows in deterministic order (the
    /// sequential scan's order, whatever the worker interleaving was), or
    /// the interrupt that cut the scan short.
    fn scan(&mut self) -> Result<Vec<Firing>, Interrupt> {
        let scan_start = Instant::now();
        let batch = self.config.batch;
        let units = self.tables.iter().enumerate().flat_map(|(rule, table)| {
            batches(table.live.len(), batch).map(move |(start, end)| ScanUnit {
                rule: rule as u32,
                start,
                end,
            })
        });
        let task = ScanTask {
            rules: self.rules,
            tables: &self.tables,
            eq: &self.eq,
            index: &self.index,
            ttl: self.config.ttl,
        };
        let run = run_task(
            &task,
            units.collect(),
            self.metrics.workers,
            &AtomicBool::new(false),
            &self.config.budget,
            self.config.trace,
            &mut self.metrics,
        );
        let mut fired: Vec<Firing> = Vec::new();
        for w in run.workers {
            self.stats.premise_evals += w.premise_evals;
            self.stats.realization_checks += w.realization_checks;
            fired.extend(w.fired);
        }
        // Each unit's firings are an ascending run: merge the runs.
        fired.sort();
        self.stats.realized += fired.iter().filter(|f| f.2).count() as u64;
        self.stats.scan_time += scan_start.elapsed();
        match run.interrupt {
            Some(interrupt) => Err(interrupt),
            None => Ok(fired),
        }
    }

    /// The greedy conflict partition (DESIGN.md §12.1). Walk the round's
    /// firings in deterministic `(rule, row)` order; each firing claims
    /// its touched equivalence *classes* — the root slots of the premise
    /// attribute keys its literals bind or merge, in the live relation
    /// the commit walk is about to write — and its touched premise *nodes*
    /// (adjacency-list writes of generated edges). A firing whose claims
    /// are all unclaimed joins the independent set; any overlap books it
    /// as a conflict. Fresh nodes and their keys are a firing's own by
    /// construction and claim nothing.
    ///
    /// Class-level (not key-level) resolution is what makes the criterion
    /// the commutation condition of attributed-graph parallel independence:
    /// two independent firings write disjoint union-find components, touch
    /// disjoint adjacency lists, and create disjoint fresh-node ranges, so
    /// their commits compose in either order with identical outcome —
    /// including identical conflict behaviour.
    ///
    /// Resolving a key creates the latent singleton the commit walk would
    /// create for it, and path-compresses: neither changes which keys
    /// share a class, so the partition is the same at every worker count.
    fn partition(&mut self, fired: &[Firing]) -> Vec<bool> {
        self.stamp += 1;
        let (stamp, eq) = (self.stamp, &mut self.eq);
        let (claimed_classes, claimed_nodes) = (&mut self.claimed_classes, &mut self.claimed_nodes);
        claimed_nodes.resize(self.graph.node_count(), 0);
        let (mut classes, mut nodes) = (Vec::new(), Vec::new());
        fired
            .iter()
            .map(|&(rule, row, realized)| {
                if realized {
                    // Writes nothing, independent of everything.
                    return true;
                }
                classes.clear();
                nodes.clear();
                let m = self.tables[rule as usize].get(row as usize);
                let (lits, shared) = match &self.rules[rule as usize].consequence {
                    Consequence::Literals(lits) => (lits.as_slice(), m.len()),
                    Consequence::Generate(gen) => {
                        let ends = gen.pattern.edges().iter().flat_map(|e| [e.src, e.dst]);
                        let old = ends.filter(|v| v.index() < gen.shared);
                        nodes.extend(old.map(|v| m[v.index()].index()));
                        (gen.attrs.as_slice(), gen.shared)
                    }
                };
                let mut class = |v: VarId, a| {
                    if v.index() < shared {
                        classes.push(eq.class_id((m[v.index()], a)) as usize);
                    }
                };
                for lit in lits {
                    class(lit.var, lit.attr);
                    if let Operand::Attr(v2, a2) = &lit.rhs {
                        class(*v2, *a2);
                    }
                }
                claimed_classes.resize(eq.key_count(), 0);
                let free = classes.iter().all(|&c| claimed_classes[c] != stamp)
                    && nodes.iter().all(|&n| claimed_nodes[n] != stamp);
                if free {
                    classes.iter().for_each(|&c| claimed_classes[c] = stamp);
                    nodes.iter().for_each(|&n| claimed_nodes[n] = stamp);
                }
                free
            })
            .collect()
    }

    /// Run one round — scan, partition, commit, and the table update a
    /// grown topology calls for. `Ok(changed)`: the round ran to its end,
    /// and the fixpoint is reached when it changed nothing; `Err`: the run
    /// ends here without one.
    fn round(&mut self) -> Result<bool, DepChaseOutcome> {
        use DepChaseOutcome::Interrupted;
        if self.config.budget.expired() {
            return Err(Interrupted(Interrupt::Deadline));
        }
        self.stats.rounds += 1;
        let round = self.stats.rounds as u32;
        let round_span = self.ctl.start();
        let checks0 = self.stats.realization_checks;
        let fired = self.scan().map_err(Interrupted)?;

        // ---- apply phase: partition, then commit in order ----
        if failpoint::triggered("chase/apply") {
            return Err(Interrupted(Interrupt::Aborted(
                "failpoint chase/apply fired".to_string(),
            )));
        }
        // Every fired row is live, so none has fired before: a (rule, row)
        // key fires at most once across rounds. The greedy partition
        // splits the round into the parallel-independent set (disjoint
        // touched classes, nodes, and fresh ranges — those commits
        // commute) and the conflicting residual.
        let apply_start = Instant::now();
        let plan_span = self.ctl.start();
        let independent = self.partition(&fired);
        self.ctl.span(
            EventKind::ApplyPlan,
            round,
            plan_span,
            fired.len() as u64,
            self.stats.realization_checks - checks0,
        );

        // Deterministic commit walk in sorted (rule, row) order, every
        // mutation derived from the firing's rule and row as a fully
        // serial apply would — so node ids, conflict attribution and
        // budget cut points are identical at every worker count, and the
        // partition only decides where a firing is booked.
        let commit_span = self.ctl.start();
        let independent0 = self.stats.apply_independent;
        let conflicts0 = self.stats.apply_conflicts;
        let topo_before = self.graph.topology_version();
        let first_new = self.graph.node_count();
        let mut new_edges: Vec<(NodeId, LabelId, NodeId)> = Vec::new();
        let mut asn: Vec<NodeId> = Vec::new();
        let mut changed = false;
        for (&(rule, row, realized), independent) in fired.iter().zip(independent) {
            if realized {
                continue;
            }
            if independent {
                self.stats.apply_independent += 1;
            } else {
                self.stats.apply_conflicts += 1;
            }
            let m = self.tables[rule as usize].get(row as usize);
            let eq = &mut self.eq;
            let applied = match &self.rules[rule as usize].consequence {
                Consequence::Literals(lits) => lits
                    .iter()
                    .try_fold(false, |c, lit| Ok(c | enforce(eq, lit, m)?)),
                Consequence::Generate(gen) => {
                    let old = |v: VarId| v.index() < gen.shared;
                    for e in gen
                        .pattern
                        .edges()
                        .iter()
                        .filter(|e| old(e.src) && old(e.dst))
                    {
                        let (s, d) = (m[e.src.index()], m[e.dst.index()]);
                        if !self.graph.has_edge(s, e.label, d) {
                            new_edges.push((s, e.label, d));
                        }
                    }
                    gen.materialize(&mut self.graph, m, &mut asn, &mut |lit, asn| {
                        enforce(eq, lit, asn).map(|_| ())
                    })
                    .map(|()| {
                        self.stats.generated_nodes += gen.fresh_count() as u64;
                        true
                    })
                }
            };
            changed |= applied.map_err(|e: Conflict| {
                DepChaseOutcome::Conflict(e.with_gfd(GfdId::new(rule as usize)))
            })?;
            if self.stats.generated_nodes > self.config.max_generated_nodes {
                return Err(Interrupted(Interrupt::FreshNodes));
            }
        }
        retire(&mut self.tables, &fired);
        self.stats.apply_time += apply_start.elapsed();
        self.ctl.span(
            EventKind::ApplyCommit,
            round,
            commit_span,
            self.stats.apply_independent - independent0,
            self.stats.apply_conflicts - conflicts0,
        );
        self.ctl.span(
            EventKind::ChaseRound,
            round,
            round_span,
            fired.len() as u64,
            self.rules.len() as u64,
        );

        if self.graph.topology_version() != topo_before {
            // Materialization grew the graph: the frozen index is stale,
            // and the matches that use what was generated are missing.
            self.index = LabelIndex::build(&self.graph);
            let growth = Growth::new(first_new, new_edges);
            for (table, rule) in self.tables.iter_mut().zip(self.rules) {
                self.stats.matches_enumerated +=
                    table.extend(&self.graph, &self.index, &rule.pattern, &growth);
            }
        }
        Ok(changed)
    }
}

/// Chase a [`DepSet`] over `graph0` to fixpoint, conflict or interrupt
/// (budget exhaustion, the fresh-node cap included), starting from `eq0`.
///
/// Each round runs the premise scan of **every** dependency — every row
/// that has not fired yet — as scan units on the shared scheduler. A
/// generating row whose premise holds has its *realization* checked by the
/// same worker against the same **round-start** topology and relation
/// snapshot — checks are read-only, so they are all independent by
/// construction. A `(rule, row)` key fires at most once across rounds: a
/// fired row is retired.
///
/// The apply phase is then one serial pass, a **deterministic commit
/// walk** in sorted `(rule, row)` order: each firing's binds, merges,
/// fresh nodes and edges are derived from its rule and row exactly as a
/// fully serial apply would, so node ids, conflict attribution, and budget
/// cut points are identical at every worker count. The greedy conflict
/// partition (DESIGN.md §12.2) books each firing in the
/// parallel-independent set — disjoint touched equivalence classes,
/// premise nodes, and fresh-node ranges, whose commits provably commute —
/// or the conflicting residual.
///
/// When a round materialized topology, the index is re-frozen and each
/// rule's table gains the matches that use a generated node or edge
/// before the next round; fixpoint is reached when a round applies
/// nothing new. Literal-only sets never materialize, so for them the
/// tables are enumerated once and every round only re-evaluates the
/// premises that have not fired — the baseline `chase_sat` / `chase_imp`
/// run.
pub fn dep_chase_with_config(
    deps: &DepSet,
    graph0: Graph,
    eq0: EqRel,
    config: &ChaseConfig,
) -> (DepChaseOutcome, ChaseStats, RunMetrics) {
    let start = Instant::now();
    let mut chase = Chase::new(deps.as_slice(), graph0, eq0, config);
    let stopped = loop {
        match chase.round() {
            Ok(true) => {}
            Ok(false) => break None,
            Err(outcome) => break Some(outcome),
        }
    };
    let Chase {
        graph,
        eq,
        stats,
        mut metrics,
        ctl,
        ..
    } = chase;
    metrics.early_terminated = stopped.is_some();
    metrics.matches = stats.matches_enumerated;
    metrics.trace.absorb_buf(ctl);
    config.budget.stamp(start, &mut metrics);
    let outcome = stopped.unwrap_or(DepChaseOutcome::Fixpoint {
        graph: Box::new(graph),
        eq: Box::new(eq),
    });
    (outcome, stats, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat_chase::{chase_sat, chase_sat_with_config};
    use gfd_core::{CanonicalGraph, DepSet, Dependency, Literal, SatOutcome};
    use gfd_graph::{LabelId, Pattern, ValueId as VId, VarId, Vocab};
    use gfd_runtime::TraceSpec;
    use rustc_hash::FxHashSet;

    fn unary(vocab: &mut Vocab, name: &str, pre: Vec<Literal>, post: Vec<Literal>) -> Dependency {
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "x");
        Dependency::new(name, p, pre, post)
    }

    fn chain_sigma(vocab: &mut Vocab) -> DepSet {
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        // Deliberately ordered so each round unlocks the next rule.
        DepSet::from_vec(vec![
            unary(
                vocab,
                "b_to_c",
                vec![Literal::eq_const(x, b, 1i64)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary(
                vocab,
                "a_to_b",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
            unary(vocab, "seed", vec![], vec![Literal::eq_const(x, a, 1i64)]),
        ])
    }

    fn zero_one_sigma(vocab: &mut Vocab) -> DepSet {
        let a = vocab.attr("a");
        let x = VarId::new(0);
        DepSet::from_vec(vec![
            unary(vocab, "zero", vec![], vec![Literal::eq_const(x, a, 0i64)]),
            unary(vocab, "one", vec![], vec![Literal::eq_const(x, a, 1i64)]),
        ])
    }

    /// Chase a literal Σ over its own `GΣ` (what `chase_sat` runs),
    /// returning the fixpoint relation and the `GΣ` node of every
    /// pattern variable.
    fn chase_literal(
        sigma: &DepSet,
        cfg: &ChaseConfig,
    ) -> (EqRel, Vec<Vec<NodeId>>, ChaseStats, RunMetrics) {
        let (canon, node_of) = CanonicalGraph::for_sigma(sigma);
        let (outcome, stats, metrics) =
            dep_chase_with_config(sigma, canon.graph, EqRel::new(), cfg);
        match outcome {
            DepChaseOutcome::Fixpoint { eq, .. } => (*eq, node_of, stats, metrics),
            DepChaseOutcome::Conflict(c) => panic!("unexpected conflict: {c}"),
            DepChaseOutcome::Interrupted(i) => panic!("unexpected interrupt: {i}"),
        }
    }

    #[test]
    fn chase_derives_chains_across_rounds() {
        let mut vocab = Vocab::new();
        let c = vocab.attr("c");
        let sigma = chain_sigma(&mut vocab);
        let (eq, node_of, stats, _) = chase_literal(&sigma, &ChaseConfig::default());
        // Every t-node (one per unary pattern copy) derives c=1.
        for nodes in &node_of {
            assert!(eq.deduces_const((nodes[0], c), VId::of(1i64)));
        }
        // The chain needs multiple rounds — the naive overhead the paper
        // measures.
        assert!(stats.rounds >= 3, "rounds = {}", stats.rounds);
        assert!(stats.premise_evals > stats.matches_enumerated);
        // Literal firings materialize nothing.
        assert_eq!(stats.generated_nodes, 0);
    }

    #[test]
    fn chase_detects_conflicts() {
        let mut vocab = Vocab::new();
        let sigma = zero_one_sigma(&mut vocab);
        let r = chase_sat(&sigma);
        assert!(matches!(r.outcome, SatOutcome::Unsatisfiable(_)));
    }

    #[test]
    fn empty_sigma_fixpoints_immediately() {
        let (_, _, stats, metrics) = chase_literal(&DepSet::new(), &ChaseConfig::default());
        assert_eq!(stats.rounds, 1);
        assert_eq!(metrics.workers, 1);
    }

    /// The scheduler port must not change what the chase derives: every
    /// worker count under a TTL of zero (forced splitting with tiny
    /// batches) reaches the same fixpoint as the sequential scan.
    #[test]
    fn scan_parallelism_is_answer_invariant() {
        let mut vocab = Vocab::new();
        let c = vocab.attr("c");
        let sigma = chain_sigma(&mut vocab);
        for p in [1usize, 2, 8] {
            let cfg = ChaseConfig {
                workers: p,
                ttl: Duration::ZERO,
                batch: 1,
                ..ChaseConfig::default()
            };
            let (eq, node_of, stats, metrics) = chase_literal(&sigma, &cfg);
            for nodes in &node_of {
                assert!(eq.deduces_const((nodes[0], c), VId::of(1i64)), "p={p}");
            }
            assert!(stats.rounds >= 3);
            assert_eq!(metrics.workers, p);
            assert_eq!(metrics.worker_busy.len(), p);
            assert!(metrics.units_dispatched >= metrics.units_generated as u64);
        }
    }

    /// Tracing on: the run's merged trace carries per-rule scan spans
    /// from the workers and round/apply phase spans from the control
    /// track, one `ChaseRound` per round. Tracing off (the default):
    /// nothing is recorded.
    #[test]
    fn tracing_records_rule_and_phase_spans() {
        let mut vocab = Vocab::new();
        let sigma = chain_sigma(&mut vocab);
        let cfg = ChaseConfig {
            trace: TraceSpec::enabled(),
            ..ChaseConfig::with_workers(2)
        };
        let (_, _, stats, metrics) = chase_literal(&sigma, &cfg);
        let count =
            |k: EventKind| metrics.trace.events.iter().filter(|e| e.kind == k).count() as u64;
        assert!(count(EventKind::RuleEval) > 0, "no scan spans recorded");
        assert_eq!(count(EventKind::ChaseRound), stats.rounds);
        assert_eq!(count(EventKind::ApplyPlan), stats.rounds);
        assert_eq!(count(EventKind::ApplyCommit), stats.rounds);
        // Control spans carry the control worker id; scan spans do not.
        for e in &metrics.trace.events {
            match e.kind {
                EventKind::ChaseRound | EventKind::ApplyPlan | EventKind::ApplyCommit => {
                    assert_eq!(e.worker, CONTROL_WORKER, "{:?}", e.kind);
                }
                EventKind::RuleEval => assert_ne!(e.worker, CONTROL_WORKER),
                _ => {}
            }
        }

        let (_, _, _, quiet) = chase_literal(&sigma, &ChaseConfig::default());
        assert!(quiet.trace.is_empty(), "default config must not trace");
    }

    /// The Σs the round-verdict tests run: the mixed and the overlap
    /// workloads, and [`old_edge_sigma`] — the generated Σs find nothing
    /// realized; that one does.
    fn partition_sigmas() -> [DepSet; 3] {
        let gen = |chain_depth, fanout, literal_rules, seed| gfd_gen::GgdGenConfig {
            chain_depth,
            gen_per_tier: 2,
            fanout,
            literal_rules,
            seed,
        };
        [
            gfd_gen::mixed_ggd_workload(&gen(4, 3, 6, 5), &mut Vocab::new()),
            gfd_gen::ggd_overlap_workload(&gen(3, 2, 2, 37), &mut Vocab::new()),
            old_edge_sigma(&mut Vocab::new()),
        ]
    }

    /// The partition as it was before claims became stamps, kept as the
    /// oracle: each firing's claims sorted and deduplicated, resolved
    /// against `probe` — a clone of the round-start relation — and checked
    /// and recorded through two hash sets.
    fn partition_by_hash_sets(
        rules: &[Dependency],
        tables: &[MatchTable],
        fired: &[Firing],
        mut probe: EqRel,
    ) -> Vec<bool> {
        let mut independent = vec![false; fired.len()];
        let mut claimed_classes: FxHashSet<u32> = FxHashSet::default();
        let mut claimed_nodes: FxHashSet<NodeId> = FxHashSet::default();
        let mut classes: Vec<u32> = Vec::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for (i, &(rule, row, realized)) in fired.iter().enumerate() {
            if realized {
                independent[i] = true;
                continue;
            }
            classes.clear();
            nodes.clear();
            let m = tables[rule as usize].get(row as usize);
            let (lits, shared) = match &rules[rule as usize].consequence {
                Consequence::Literals(lits) => (lits.as_slice(), m.len()),
                Consequence::Generate(gen) => {
                    let ends = gen.pattern.edges().iter().flat_map(|e| [e.src, e.dst]);
                    nodes.extend(
                        ends.filter(|v| v.index() < gen.shared)
                            .map(|v| m[v.index()]),
                    );
                    (gen.attrs.as_slice(), gen.shared)
                }
            };
            let mut claim = |v: VarId, a| {
                if v.index() < shared {
                    classes.push(probe.class_id((m[v.index()], a)));
                }
            };
            for lit in lits {
                claim(lit.var, lit.attr);
                if let Operand::Attr(v2, a2) = &lit.rhs {
                    claim(*v2, *a2);
                }
            }
            classes.sort_unstable();
            classes.dedup();
            nodes.sort_unstable();
            nodes.dedup();
            let free = classes.iter().all(|c| !claimed_classes.contains(c))
                && nodes.iter().all(|n| !claimed_nodes.contains(n));
            if free {
                claimed_classes.extend(classes.iter().copied());
                claimed_nodes.extend(nodes.iter().copied());
                independent[i] = true;
            }
        }
        independent
    }

    /// The stamped partition books every firing where the hash-set
    /// partition over a clone of the round-start relation books it, every
    /// round, at p ∈ {1, 2, 8} with TTL 0 and one-row units: once run
    /// ahead of the round, and once inside it, where the round's
    /// `apply_independent` / `apply_conflicts` counts are the oracle's.
    #[test]
    fn partition_oracle_stamps_equal_the_hash_set_partition_every_round() {
        for deps in &partition_sigmas() {
            for p in [1usize, 2, 8] {
                let cfg = ChaseConfig {
                    workers: p,
                    ttl: Duration::ZERO,
                    batch: 1,
                    ..ChaseConfig::default()
                };
                let (canon, _) = CanonicalGraph::for_sigma(deps);
                let mut chase = Chase::new(deps.as_slice(), canon.graph, EqRel::new(), &cfg);
                let mut conflicts = 0;
                loop {
                    let round = chase.stats.rounds + 1;
                    let fired = chase.scan().unwrap();
                    let probe = chase.eq.clone();
                    let expect =
                        partition_by_hash_sets(deps.as_slice(), &chase.tables, &fired, probe);
                    assert_eq!(chase.partition(&fired), expect, "p={p}, round {round}");
                    let committed = fired.iter().zip(&expect).filter(|(f, _)| !f.2);
                    let independent = committed.clone().filter(|(_, i)| **i).count() as u64;
                    let booked = (chase.stats.apply_independent, chase.stats.apply_conflicts);
                    let changed = chase.round().unwrap_or_else(|_| panic!("no fixpoint"));
                    let (i, c) = (chase.stats.apply_independent, chase.stats.apply_conflicts);
                    let expect_booked = (independent, committed.count() as u64 - independent);
                    assert_eq!(
                        (i - booked.0, c - booked.1),
                        expect_booked,
                        "p={p}, round {round}"
                    );
                    conflicts += c - booked.1;
                    if !changed {
                        break;
                    }
                }
                assert!(conflicts > 0, "no conflicting firing to compare");
            }
        }
    }

    /// Run `deps` over `GΣ` a round at a time and check, after every
    /// round, what the append-only tables promise: each rule's table holds
    /// exactly the matches a fresh enumeration of the grown graph finds,
    /// none twice, and a row that left `live` (was retired) never comes
    /// back — so it can never be fired, let alone committed, again.
    /// Returns every round's tables, for comparison across worker counts.
    fn check_tables_every_round(deps: &DepSet, workers: usize) -> Vec<Vec<Vec<NodeId>>> {
        let cfg = ChaseConfig {
            workers,
            ttl: Duration::ZERO,
            batch: 1,
            ..ChaseConfig::default()
        };
        let (canon, _) = CanonicalGraph::for_sigma(deps);
        let mut chase = Chase::new(deps.as_slice(), canon.graph, EqRel::new(), &cfg);
        let mut retired: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); deps.len()];
        let mut snapshots = Vec::new();
        loop {
            let live_before: Vec<Vec<u32>> = chase.tables.iter().map(|t| t.live.clone()).collect();
            let changed = chase.round().unwrap_or_else(|_| panic!("no fixpoint"));
            let index = LabelIndex::build(&chase.graph);
            for (rule, table) in chase.tables.iter().enumerate() {
                let mut rows: Vec<&[NodeId]> = (0..table.len()).map(|i| table.get(i)).collect();
                rows.sort_unstable();
                assert!(
                    rows.windows(2).all(|w| w[0] != w[1]),
                    "rule {rule}: duplicate row"
                );
                let mut oracle = gfd_match::find_all_matches(
                    &chase.graph,
                    &index,
                    &deps.as_slice()[rule].pattern,
                );
                oracle.sort_unstable();
                let oracle: Vec<&[NodeId]> = oracle.iter().map(|m| &**m).collect();
                assert_eq!(rows, oracle, "rule {rule}, round {}", chase.stats.rounds);

                assert!(table.live.windows(2).all(|w| w[0] < w[1]), "rule {rule}");
                for row in live_before[rule].iter().filter(|r| !table.live.contains(r)) {
                    assert!(
                        retired[rule].insert(*row),
                        "rule {rule}: row {row} retired twice"
                    );
                }
                let back = table.live.iter().find(|r| retired[rule].contains(r));
                assert_eq!(back, None, "rule {rule}: a retired row is live again");
            }
            snapshots.push(chase.tables.iter().map(|t| t.nodes.clone()).collect());
            if !changed {
                return snapshots;
            }
        }
    }

    /// A Σ whose generated edges join two *old* premise nodes: new matches
    /// with no new node, edges generated twice, and a wildcard pattern
    /// edge whose image already had an older edge under it.
    fn old_edge_sigma(vocab: &mut Vocab) -> DepSet {
        use gfd_core::GenerateConsequence;
        let (a, b) = (vocab.label("a"), vocab.label("b"));
        let (f, g) = (vocab.label("f"), vocab.label("g"));
        let k = vocab.attr("k");
        let pair = |edge: Option<LabelId>| {
            let mut p = Pattern::new();
            let x = p.add_node(a, "x");
            let y = p.add_node(b, "y");
            if let Some(l) = edge {
                p.add_edge(x, l, y);
            }
            (p, x, y)
        };
        let link = |name: &str, premise: Option<LabelId>, generated: LabelId| {
            let (p, x, y) = pair(premise);
            let mut gen = GenerateConsequence::over(&p);
            gen.add_edge(x, generated, y);
            Dependency::new(name, p, vec![], gen)
        };
        let merge = |name: &str, edge: LabelId| {
            let (p, x, y) = pair(Some(edge));
            Dependency::new(name, p, vec![], vec![Literal::eq_attr(x, k, y, k)])
        };
        DepSet::from_vec(vec![
            // Every (a, b) pair gains an f edge; the pair of `over_f`'s own
            // pattern copy already has it.
            link("all_pairs_f", None, f),
            merge("over_f", f),
            // g under every f: the second edge beneath `over_any`'s matches.
            link("f_to_g", Some(f), g),
            merge("over_any", LabelId::WILDCARD),
            merge("over_g", g),
        ])
    }

    #[test]
    fn table_oracle_tables_equal_a_fresh_enumeration_after_every_round() {
        let overlap = gfd_gen::ggd_overlap_workload(
            &gfd_gen::GgdGenConfig {
                chain_depth: 3,
                gen_per_tier: 2,
                fanout: 2,
                literal_rules: 2,
                seed: 37,
            },
            &mut Vocab::new(),
        );
        let old_edges = old_edge_sigma(&mut Vocab::new());
        for deps in [&overlap, &old_edges] {
            let base = check_tables_every_round(deps, 1);
            assert!(base.len() >= 3, "rounds = {}", base.len());
            for p in [2usize, 8] {
                assert_eq!(check_tables_every_round(deps, p), base, "p={p}");
            }
        }
        // The hand-written Σ does what it is here for: `over_f` starts with
        // one match and ends with all four (a, b) pairs, no node added.
        let (canon, _) = CanonicalGraph::for_sigma(&old_edges);
        let nodes = canon.graph.node_count();
        let (outcome, stats, _) = dep_chase_with_config(
            &old_edges,
            canon.graph,
            EqRel::new(),
            &ChaseConfig::default(),
        );
        let DepChaseOutcome::Fixpoint { graph, .. } = outcome else {
            panic!("no fixpoint")
        };
        assert_eq!((graph.node_count(), stats.generated_nodes), (nodes, 0));
        assert!(stats.realized > 0, "{stats:?}");
    }

    /// The once-only property as counts: every distinct `(rule, row)` is
    /// enumerated once, evaluated while live, checked once and committed
    /// (or found realized) once.
    #[test]
    fn once_only_every_firing_is_planned_and_committed_once() {
        let deps = gfd_gen::mixed_ggd_workload(
            &gfd_gen::GgdGenConfig {
                chain_depth: 4,
                gen_per_tier: 2,
                fanout: 3,
                literal_rules: 6,
                seed: 5,
            },
            &mut Vocab::new(),
        );
        let cfg = ChaseConfig::with_workers(2);
        let (canon, _) = CanonicalGraph::for_sigma(&deps);
        let mut chase = Chase::new(deps.as_slice(), canon.graph, EqRel::new(), &cfg);
        let mut evals = 0u64;
        loop {
            evals += chase
                .tables
                .iter()
                .map(|t| t.live.len() as u64)
                .sum::<u64>();
            if !chase.round().unwrap_or_else(|_| panic!("no fixpoint")) {
                break;
            }
        }
        let stats = chase.stats;
        let fired = |t: &MatchTable| (t.len() - t.live.len()) as u64;
        let all_fired: u64 = chase.tables.iter().map(fired).sum();
        let generating =
            |(t, r): (&MatchTable, &Dependency)| r.consequence.is_generating().then(|| fired(t));
        let gen_fired: u64 = chase
            .tables
            .iter()
            .zip(deps.as_slice())
            .filter_map(generating)
            .sum();
        assert!(
            stats.rounds >= 5 && stats.generated_nodes > 500,
            "{stats:?}"
        );
        assert_eq!(
            stats.apply_independent + stats.apply_conflicts + stats.realized,
            all_fired,
            "{stats:?}"
        );
        assert_eq!(stats.realization_checks, gen_fired, "{stats:?}");
        assert_eq!(stats.premise_evals, evals, "{stats:?}");
        let rows: u64 = chase.tables.iter().map(|t| t.len() as u64).sum();
        assert_eq!(stats.matches_enumerated, rows, "{stats:?}");
    }

    /// A TTL of zero with the default batch: scan units hold enough rows
    /// to have a rest to offer at a stride boundary, and offer it — units
    /// that run realization checks among them. (With `batch = 1`, as every
    /// other forced-splitting test has it, a unit has no rest and
    /// `offer_rest` never runs.)
    #[test]
    fn strided_deadline_poll_splits_scan_units_that_check_realization() {
        let deps = gfd_gen::mixed_ggd_workload(
            &gfd_gen::GgdGenConfig {
                chain_depth: 4,
                gen_per_tier: 2,
                fanout: 3,
                literal_rules: 6,
                seed: 5,
            },
            &mut Vocab::new(),
        );
        let cfg = ChaseConfig {
            ttl: Duration::ZERO,
            ..ChaseConfig::with_workers(2)
        };
        let (canon, _) = CanonicalGraph::for_sigma(&deps);
        let mut chase = Chase::new(deps.as_slice(), canon.graph, EqRel::new(), &cfg);
        let mut checked_and_split = 0;
        loop {
            // Each generating rule's scan units, one at a time, a round
            // ahead: the scan only reads the round-start state, so running
            // it early changes nothing but stats.
            let task = ScanTask {
                rules: deps.as_slice(),
                tables: &chase.tables,
                eq: &chase.eq,
                index: &chase.index,
                ttl: cfg.ttl,
            };
            for (rule, table) in chase.tables.iter().enumerate() {
                if !deps.as_slice()[rule].consequence.is_generating() {
                    continue;
                }
                for (start, end) in batches(table.live.len(), cfg.batch) {
                    let rule = rule as u32;
                    let unit = ScanUnit { rule, start, end };
                    let mut metrics = RunMetrics::default();
                    let stop = AtomicBool::new(false);
                    let run = run_task(
                        &task,
                        vec![unit],
                        1,
                        &stop,
                        &cfg.budget,
                        cfg.trace,
                        &mut metrics,
                    );
                    if metrics.units_split > 0 && run.workers[0].realization_checks > 0 {
                        checked_and_split += 1;
                    }
                }
            }
            if !chase.round().unwrap_or_else(|_| panic!("no fixpoint")) {
                break;
            }
        }
        let scan_splits = chase.metrics.units_split;
        assert!(
            scan_splits > 0 && checked_and_split > 0,
            "{scan_splits} / {checked_and_split}"
        );
    }

    /// Every round's fired `(rule, row, realized)` list and the partition's
    /// independence flags, each round scanned and partitioned once ahead
    /// of the round itself (both only read the round-start state).
    fn firings_every_round(deps: &DepSet, cfg: &ChaseConfig) -> Vec<(Vec<Firing>, Vec<bool>)> {
        let (canon, _) = CanonicalGraph::for_sigma(deps);
        let mut chase = Chase::new(deps.as_slice(), canon.graph, EqRel::new(), cfg);
        let mut rounds = Vec::new();
        loop {
            let fired = chase.scan().unwrap();
            let independent = chase.partition(&fired);
            rounds.push((fired, independent));
            if !chase.round().unwrap_or_else(|_| panic!("no fixpoint")) {
                return rounds;
            }
        }
    }

    /// Whichever worker checks a firing's realization, a round decides the
    /// same:
    /// per round, the `(fired, realized)` list and the independence flags
    /// at p = 1 (default TTL) equal those at p ∈ {2, 8} with TTL 0 and
    /// one-row units.
    #[test]
    fn one_pass_round_verdicts_are_worker_count_invariant() {
        let mut realized = 0;
        for deps in &partition_sigmas() {
            let base = firings_every_round(deps, &ChaseConfig::default());
            assert!(base.len() >= 3, "rounds = {}", base.len());
            let conflicts = base.iter().flat_map(|r| &r.1).filter(|i| !**i).count();
            assert!(conflicts > 0, "no conflicting firing to compare");
            realized += base.iter().flat_map(|r| &r.0).filter(|f| f.2).count();
            for p in [2usize, 8] {
                let cfg = ChaseConfig {
                    workers: p,
                    ttl: Duration::ZERO,
                    batch: 1,
                    ..ChaseConfig::default()
                };
                assert_eq!(firings_every_round(deps, &cfg), base, "p={p}");
            }
        }
        assert!(realized > 0, "no realized firing to compare");
    }

    #[test]
    fn conflicts_survive_the_parallel_scan() {
        let mut vocab = Vocab::new();
        let sigma = zero_one_sigma(&mut vocab);
        for p in [2usize, 4] {
            let r = chase_sat_with_config(&sigma, &ChaseConfig::with_workers(p));
            assert!(matches!(r.outcome, SatOutcome::Unsatisfiable(_)), "p={p}");
            assert!(r.metrics.early_terminated);
        }
    }
}
