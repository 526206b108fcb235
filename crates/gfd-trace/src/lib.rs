//! Structured tracing for the GFD reasoning stack.
//!
//! Every scheduler worker owns a bounded ring buffer ([`TraceBuf`]) of
//! fixed-size [`TraceEvent`]s. Recording is strictly worker-local — no
//! shared-state writes on the hot path, no locks, no allocation after the
//! ring is created — and collapses to a single branch when tracing is
//! disabled ([`TraceSpec::disabled`], the default). At quiescence the
//! scheduler drains every ring into one [`Trace`], which rides the
//! existing `RunMetrics` return path up to the CLI.
//!
//! [`Trace::profile`] aggregates a [`Trace`] into a [`Profile`] (per-rule
//! time/matches/violations, per-worker busy/steal counters, per-phase
//! breakdown), rendered as text by `--profile`. The wire formats — the
//! Chrome trace (`--trace FILE`) and the run report (`--metrics-json`) —
//! are built in `gfd_io::report`; this crate only records and aggregates.
//!
//! The crate is dependency-free and knows nothing about graphs or
//! schedulers: layers record events through the [`TraceBuf`] they were
//! handed, and the taxonomy ([`EventKind`]) is the shared vocabulary.
//! See DESIGN.md §13 for the drain protocol and the non-interference
//! argument.

#![warn(missing_docs)]

use std::time::Instant;

/// Worker id used for control-track events recorded outside any scheduler
/// worker (round orchestration, batch application, checkpoint writes).
pub const CONTROL_WORKER: u32 = u32::MAX;

/// The event taxonomy shared by every layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// One work-unit execution on a scheduler worker (span; no payload).
    UnitExec,
    /// A successful steal: claimed units from a victim's queue (instant;
    /// `a` = units claimed, `b` = victim worker).
    Steal,
    /// TTL straggler split (instant; `a` = units pushed).
    Split,
    /// A cooperative budget tripped on this worker (instant;
    /// `a` = units executed so far, `b` = 0 deadline / 1 max-units).
    BudgetCut,
    /// One rule evaluation (span; `id` = rule index, `a` = matches lent (in
    /// detection: on-premise ones), `b` = violations / consequences fired).
    RuleEval,
    /// One chase round, its premise scan and its commit walk (span;
    /// `id` = round, `a` = firings, `b` = rules scanned).
    ChaseRound,
    /// The commit walk of one chase round (span; `id` = round,
    /// `a` = firings committed, `b` = firings found realized).
    ApplyCommit,
    /// One dirty-frontier search in the incremental engine (span;
    /// `a` = dirty seed nodes, `b` = nodes visited, by the forward levels
    /// and the backward searches from rare pivots together).
    FrontierBfs,
    /// One delta batch applied by the incremental engine (span;
    /// `id` = batch index, `a` = ops, `b` = pivots re-run).
    Batch,
    /// An overlay compaction (span; `a` = overlay ops folded).
    Compact,
    /// A checkpoint write (span; `a` = batches applied at the cut).
    Checkpoint,
    /// A GED branch-and-bound unit's branch exploration (span;
    /// `a` = branches opened, `b` = branches pruned).
    GedBranch,
}

impl EventKind {
    /// The stable name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::UnitExec => "UnitExec",
            EventKind::Steal => "Steal",
            EventKind::Split => "Split",
            EventKind::BudgetCut => "BudgetCut",
            EventKind::RuleEval => "RuleEval",
            EventKind::ChaseRound => "ChaseRound",
            EventKind::ApplyCommit => "ApplyCommit",
            EventKind::FrontierBfs => "FrontierBfs",
            EventKind::Batch => "Batch",
            EventKind::Compact => "Compact",
            EventKind::Checkpoint => "Checkpoint",
            EventKind::GedBranch => "GedBranch",
        }
    }

    /// Names for the two payload counters (`""` = counter unused).
    pub fn payload_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::UnitExec => ("", ""),
            EventKind::Steal => ("claimed", "victim"),
            EventKind::Split => ("units", ""),
            EventKind::BudgetCut => ("units_executed", "cause"),
            EventKind::RuleEval => ("matches", "violations"),
            EventKind::ChaseRound => ("firings", "rules"),
            EventKind::ApplyCommit => ("committed", "realized"),
            EventKind::FrontierBfs => ("dirty", "visited"),
            EventKind::Batch => ("ops", "rerun_pivots"),
            EventKind::Compact => ("ops", ""),
            EventKind::Checkpoint => ("batches", ""),
            EventKind::GedBranch => ("branches", "pruned"),
        }
    }
}

/// One recorded event: a span (`dur_ns > 0`) or an instant (`dur_ns == 0`).
///
/// Fixed-size and `Copy` so the ring buffer is a flat preallocated array
/// the hot path writes into without ever allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// The worker that recorded it ([`CONTROL_WORKER`] for control-track
    /// events recorded outside the scheduler).
    pub worker: u32,
    /// Kind-specific identifier: rule index for [`EventKind::RuleEval`],
    /// round for the chase kinds, batch index for [`EventKind::Batch`].
    pub id: u32,
    /// Start time in nanoseconds since the [`TraceSpec`] epoch.
    pub t0_ns: u64,
    /// Span duration in nanoseconds; `0` marks an instant. Spans clamp to
    /// at least 1ns so a sub-nanosecond span never reads as an instant.
    pub dur_ns: u64,
    /// First payload counter (see [`EventKind::payload_names`]).
    pub a: u64,
    /// Second payload counter.
    pub b: u64,
}

/// Tracing configuration, plumbed by value through every layer's config.
///
/// `Copy` so it can live inside the scheduler's `SchedOptions`. All
/// buffers created from one spec share its epoch, which keeps every
/// layer's timestamps on a single timeline.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpec {
    /// Record events? When `false`, every recording call is one branch.
    pub enabled: bool,
    /// Ring capacity per worker, in events. When the ring is full the
    /// oldest event is overwritten and the drop counter incremented —
    /// the hot path never blocks and never reallocates.
    pub capacity: usize,
    /// The zero point of every timestamp recorded under this spec.
    pub epoch: Instant,
}

/// Default per-worker ring capacity (events; ~3 MiB of 48-byte events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl TraceSpec {
    /// Tracing off: recording is a no-op, drains produce nothing.
    pub fn disabled() -> Self {
        TraceSpec {
            enabled: false,
            capacity: 0,
            epoch: Instant::now(),
        }
    }

    /// Tracing on with the default per-worker ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Tracing on with an explicit per-worker ring capacity (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSpec {
            enabled: true,
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// A derived spec for a low-volume control-track buffer: same epoch
    /// (one timeline) and enabled flag, but a small ring — control
    /// phases record a handful of events per round or batch, so a
    /// full-size per-worker ring would be wasted allocation.
    pub fn control(self) -> Self {
        TraceSpec {
            capacity: self.capacity.min(1024),
            ..self
        }
    }
}

impl Default for TraceSpec {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The start of a span: captured by [`TraceBuf::start`], consumed by
/// [`TraceBuf::span`]. Holds nothing when tracing is disabled, so the
/// disabled path never reads the clock.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(Option<Instant>);

impl SpanStart {
    /// A start that records nothing (for code paths without a buffer).
    pub fn none() -> Self {
        SpanStart(None)
    }
}

/// A per-worker bounded event ring. Strictly single-owner: only the
/// worker that owns it ever writes, so recording needs no atomics.
#[derive(Debug)]
pub struct TraceBuf {
    spec: TraceSpec,
    worker: u32,
    events: Vec<TraceEvent>,
    /// Oldest element once the ring has wrapped; next overwrite target.
    head: usize,
    dropped: u64,
}

impl TraceBuf {
    /// A ring for `worker` under `spec`. Disabled specs allocate nothing.
    pub fn new(spec: TraceSpec, worker: u32) -> Self {
        let events = if spec.enabled {
            Vec::with_capacity(spec.capacity)
        } else {
            Vec::new()
        };
        TraceBuf {
            spec,
            worker,
            events,
            head: 0,
            dropped: 0,
        }
    }

    /// Is this buffer recording?
    pub fn enabled(&self) -> bool {
        self.spec.enabled
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// No events recorded (always true when disabled)?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Capture a span start. Reads the clock only when enabled.
    #[inline]
    pub fn start(&self) -> SpanStart {
        if self.spec.enabled {
            SpanStart(Some(Instant::now()))
        } else {
            SpanStart(None)
        }
    }

    /// Record a span opened by [`TraceBuf::start`]. A `SpanStart` taken
    /// while disabled records nothing.
    #[inline]
    pub fn span(&mut self, kind: EventKind, id: u32, start: SpanStart, a: u64, b: u64) {
        let Some(t0) = start.0 else { return };
        if !self.spec.enabled {
            return;
        }
        let dur = t0.elapsed().as_nanos().max(1) as u64;
        let t0_ns = t0.saturating_duration_since(self.spec.epoch).as_nanos() as u64;
        self.push(TraceEvent {
            kind,
            worker: self.worker,
            id,
            t0_ns,
            dur_ns: dur,
            a,
            b,
        });
    }

    /// Record an instant event (duration zero).
    #[inline]
    pub fn instant(&mut self, kind: EventKind, id: u32, a: u64, b: u64) {
        if !self.spec.enabled {
            return;
        }
        let t0_ns = Instant::now()
            .saturating_duration_since(self.spec.epoch)
            .as_nanos() as u64;
        self.push(TraceEvent {
            kind,
            worker: self.worker,
            id,
            t0_ns,
            dur_ns: 0,
            a,
            b,
        });
    }

    /// Ring insert: append until full, then overwrite the oldest slot.
    /// Never reallocates (`events` was created at full capacity) and
    /// never blocks — overflow only bumps the drop counter.
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.spec.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.spec.capacity;
            self.dropped += 1;
        }
    }

    /// Drain into record order (oldest surviving event first).
    fn drain_ordered(mut self) -> (Vec<TraceEvent>, u64) {
        if self.head > 0 {
            self.events.rotate_left(self.head);
        }
        (self.events, self.dropped)
    }
}

/// The merged whole-run event collection every layer's metrics carry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// All drained events.
    pub events: Vec<TraceEvent>,
    /// Total events dropped to ring overflow across all buffers.
    pub dropped: u64,
}

impl Trace {
    /// No events and no drops (the disabled-tracing shape)?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Fold one worker's drained ring into the collection.
    pub fn absorb_buf(&mut self, buf: TraceBuf) {
        let (events, dropped) = buf.drain_ordered();
        if self.events.is_empty() {
            self.events = events;
        } else {
            self.events.extend_from_slice(&events);
        }
        self.dropped += dropped;
    }

    /// Fold another trace in (e.g. a later stream batch, or a nested
    /// scheduler run's events into the enclosing engine's trace).
    pub fn merge(&mut self, other: &Trace) {
        self.events.extend_from_slice(&other.events);
        self.dropped += other.dropped;
    }

    /// Aggregate into the per-rule / per-worker / per-phase [`Profile`].
    pub fn profile(&self) -> Profile {
        let mut rules: Vec<RuleProfile> = Vec::new();
        let mut workers: Vec<WorkerProfile> = Vec::new();
        let mut phases: Vec<PhaseProfile> = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::RuleEval => {
                    let row = match rules.iter_mut().find(|r| r.id == e.id) {
                        Some(row) => row,
                        None => {
                            rules.push(RuleProfile {
                                id: e.id,
                                ..Default::default()
                            });
                            rules.last_mut().expect("just pushed")
                        }
                    };
                    row.evals += 1;
                    row.time_ns += e.dur_ns;
                    row.matches += e.a;
                    row.violations += e.b;
                }
                EventKind::UnitExec
                | EventKind::Steal
                | EventKind::Split
                | EventKind::BudgetCut => {
                    let row = match workers.iter_mut().find(|w| w.worker == e.worker) {
                        Some(row) => row,
                        None => {
                            workers.push(WorkerProfile {
                                worker: e.worker,
                                ..Default::default()
                            });
                            workers.last_mut().expect("just pushed")
                        }
                    };
                    match e.kind {
                        EventKind::UnitExec => {
                            row.units += 1;
                            row.exec_ns += e.dur_ns;
                        }
                        EventKind::Steal => {
                            row.steals += 1;
                            row.stolen += e.a;
                        }
                        EventKind::Split => {
                            row.splits += 1;
                            row.split_units += e.a;
                        }
                        EventKind::BudgetCut => row.budget_cuts += 1,
                        _ => unreachable!(),
                    }
                }
                kind => {
                    let row = match phases.iter_mut().find(|p| p.kind == kind && p.id == e.id) {
                        Some(row) => row,
                        None => {
                            phases.push(PhaseProfile {
                                kind,
                                id: e.id,
                                count: 0,
                                time_ns: 0,
                                a: 0,
                                b: 0,
                            });
                            phases.last_mut().expect("just pushed")
                        }
                    };
                    row.count += 1;
                    row.time_ns += e.dur_ns;
                    row.a += e.a;
                    row.b += e.b;
                }
            }
        }
        rules.sort_by_key(|r| r.id);
        workers.sort_by_key(|w| w.worker);
        Profile {
            rules,
            workers,
            phases,
            dropped: self.dropped,
        }
    }
}

/// Label a rule id against a name table (fallback `rule<id>`).
pub fn rule_label(names: &[String], id: u32) -> String {
    names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("rule{id}"))
}

/// Aggregated evaluation profile for one rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// Rule index ([`TraceEvent::id`] of its `RuleEval` events).
    pub id: u32,
    /// Evaluation spans recorded.
    pub evals: u64,
    /// Total evaluation time, ns.
    pub time_ns: u64,
    /// Matches lent to the analysis (detection: on-premise matches).
    pub matches: u64,
    /// Violations (or consequences fired) attributed to the rule.
    pub violations: u64,
}

/// Aggregated scheduler activity for one worker.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker id.
    pub worker: u32,
    /// Units executed.
    pub units: u64,
    /// Time inside unit execution, ns.
    pub exec_ns: u64,
    /// Successful steal operations.
    pub steals: u64,
    /// Units claimed by those steals.
    pub stolen: u64,
    /// Split operations performed.
    pub splits: u64,
    /// Units pushed by those splits.
    pub split_units: u64,
    /// Budget cuts this worker observed first.
    pub budget_cuts: u64,
}

/// Aggregated control-track activity keyed by `(kind, id)` — chase
/// rounds, incremental batches, frontier BFS, compactions, checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The phase kind.
    pub kind: EventKind,
    /// The kind-specific id (round / batch index).
    pub id: u32,
    /// Events aggregated into this row.
    pub count: u64,
    /// Total span time, ns.
    pub time_ns: u64,
    /// Summed first payload counter.
    pub a: u64,
    /// Summed second payload counter.
    pub b: u64,
}

/// The aggregated profile report both CLI renderers consume.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-rule evaluation rows, ordered by rule id.
    pub rules: Vec<RuleProfile>,
    /// Per-worker scheduler rows, ordered by worker id.
    pub workers: Vec<WorkerProfile>,
    /// Per-phase rows in first-appearance order.
    pub phases: Vec<PhaseProfile>,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl Profile {
    /// Nothing was recorded?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.workers.is_empty() && self.phases.is_empty()
    }

    /// Render the profile as indented text tables (the CLI's `--profile`).
    pub fn render_text(&self, rule_names: &[String]) -> String {
        let mut out = String::new();
        if !self.rules.is_empty() {
            out.push_str("profile: per-rule evaluation\n");
            out.push_str(&format!(
                "  {:<24} {:>8} {:>10} {:>10} {:>10}\n",
                "rule", "evals", "time", "matches", "violations"
            ));
            for r in &self.rules {
                out.push_str(&format!(
                    "  {:<24} {:>8} {:>10} {:>10} {:>10}\n",
                    rule_label(rule_names, r.id),
                    r.evals,
                    fmt_ns(r.time_ns),
                    r.matches,
                    r.violations
                ));
            }
        }
        if !self.workers.is_empty() {
            out.push_str("profile: per-worker scheduler\n");
            out.push_str(&format!(
                "  {:<8} {:>8} {:>10} {:>7} {:>7} {:>7}\n",
                "worker", "units", "exec", "steals", "stolen", "splits"
            ));
            for w in &self.workers {
                let label = if w.worker == CONTROL_WORKER {
                    "ctl".to_string()
                } else {
                    w.worker.to_string()
                };
                out.push_str(&format!(
                    "  {:<8} {:>8} {:>10} {:>7} {:>7} {:>7}\n",
                    label,
                    w.units,
                    fmt_ns(w.exec_ns),
                    w.steals,
                    w.stolen,
                    w.splits
                ));
            }
        }
        if !self.phases.is_empty() {
            out.push_str("profile: phases\n");
            out.push_str(&format!(
                "  {:<12} {:>5} {:>6} {:>10}  payload\n",
                "phase", "id", "count", "time"
            ));
            for p in &self.phases {
                let (an, bn) = p.kind.payload_names();
                let mut payload = String::new();
                if !an.is_empty() {
                    payload.push_str(&format!("{}={}", an, p.a));
                }
                if !bn.is_empty() {
                    payload.push_str(&format!(" {}={}", bn, p.b));
                }
                out.push_str(&format!(
                    "  {:<12} {:>5} {:>6} {:>10}  {}\n",
                    p.kind.name(),
                    p.id,
                    p.count,
                    fmt_ns(p.time_ns),
                    payload.trim()
                ));
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "profile: {} event(s) dropped to ring overflow\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        kind: EventKind,
        worker: u32,
        id: u32,
        t0: u64,
        dur: u64,
        a: u64,
        b: u64,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            worker,
            id,
            t0_ns: t0,
            dur_ns: dur,
            a,
            b,
        }
    }

    #[test]
    fn disabled_buf_records_nothing_and_allocates_nothing() {
        let mut buf = TraceBuf::new(TraceSpec::disabled(), 0);
        assert!(!buf.enabled());
        let s = buf.start();
        buf.span(EventKind::UnitExec, 0, s, 0, 0);
        buf.instant(EventKind::Steal, 0, 3, 1);
        assert!(buf.is_empty());
        assert_eq!(buf.events.capacity(), 0, "disabled ring must not allocate");
        let mut t = Trace::default();
        t.absorb_buf(buf);
        assert!(t.is_empty());
    }

    #[test]
    fn ring_wrap_drops_oldest_counts_drops_and_never_reallocates() {
        let spec = TraceSpec::with_capacity(4);
        let mut buf = TraceBuf::new(spec, 7);
        let cap_before = buf.events.capacity();
        for i in 0..10u32 {
            buf.instant(EventKind::Steal, i, i as u64, 0);
        }
        assert_eq!(buf.len(), 4, "ring holds exactly its capacity");
        assert_eq!(buf.dropped(), 6, "six oldest events overwritten");
        assert_eq!(
            buf.events.capacity(),
            cap_before,
            "overflow must never reallocate the ring"
        );
        let mut t = Trace::default();
        t.absorb_buf(buf);
        // Oldest-first drain: the four survivors are the newest events.
        let ids: Vec<u32> = t.events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(t.dropped, 6);
    }

    #[test]
    fn spans_carry_duration_and_epoch_relative_start() {
        let spec = TraceSpec::enabled();
        let mut buf = TraceBuf::new(spec, 1);
        let s = buf.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        buf.span(EventKind::RuleEval, 5, s, 10, 2);
        assert_eq!(buf.len(), 1);
        let e = buf.events[0];
        assert_eq!(e.kind, EventKind::RuleEval);
        assert_eq!(e.id, 5);
        assert!(e.dur_ns >= 1_000_000, "slept 2ms, got {}ns", e.dur_ns);
        assert_eq!((e.a, e.b), (10, 2));
    }

    #[test]
    fn merge_concatenates_events_and_drops() {
        let mut a = Trace {
            events: vec![event(EventKind::UnitExec, 0, 0, 5, 10, 0, 0)],
            dropped: 2,
        };
        let b = Trace {
            events: vec![event(EventKind::Steal, 1, 0, 7, 0, 3, 0)],
            dropped: 1,
        };
        a.merge(&b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.dropped, 3);
    }

    #[test]
    fn profile_aggregates_rules_workers_and_phases() {
        let t = Trace {
            events: vec![
                event(EventKind::RuleEval, 0, 2, 0, 100, 5, 1),
                event(EventKind::RuleEval, 1, 2, 50, 300, 7, 0),
                event(EventKind::RuleEval, 1, 0, 60, 50, 1, 1),
                event(EventKind::UnitExec, 0, 0, 0, 400, 0, 0),
                event(EventKind::Steal, 0, 0, 10, 0, 4, 1),
                event(EventKind::ChaseRound, CONTROL_WORKER, 0, 0, 900, 12, 3),
                event(EventKind::ChaseRound, CONTROL_WORKER, 1, 1000, 100, 2, 3),
            ],
            dropped: 1,
        };
        let p = t.profile();
        assert_eq!(p.rules.len(), 2);
        let r2 = p.rules.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(
            (r2.evals, r2.time_ns, r2.matches, r2.violations),
            (2, 400, 12, 1)
        );
        assert_eq!(p.workers.len(), 1);
        assert_eq!(p.workers[0].units, 1);
        assert_eq!(p.workers[0].steals, 1);
        assert_eq!(p.workers[0].stolen, 4);
        assert_eq!(p.phases.len(), 2, "rounds keyed by id");
        assert_eq!(p.dropped, 1);
        let text = p.render_text(&["a".into(), "b".into(), "phi3".into()]);
        assert!(text.contains("phi3"), "{text}");
        assert!(text.contains("ChaseRound"), "{text}");
        assert!(text.contains("dropped"), "{text}");
    }
}
