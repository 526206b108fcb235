//! The two measurement drivers every workload runs under: the end-to-end
//! run (fused calls, tracing off) and the traced run (one operation per
//! side replayed stage by stage, plus the per-layer probes).
//!
//! Load model: closed loop, one process, one operation in flight. The
//! `workers = 1` and `workers = n` sides alternate (ABAB, swapping which
//! goes first each round) so drift on a shared host hits both alike.
//!
//! Every end-to-end time is *load-compensated*: scaled by the nominal
//! over the current running time of a reference kernel interleaved with
//! the operations ([`HostLoad`]). Traced runs report raw times.

use crate::probe::{self, Reference, REFERENCE_NOMINAL_MS};
use gfd_runtime::sched::{run_scheduler_with, Task, WorkerCtx};
use gfd_runtime::{DispatchMode, SchedOptions};
use gfdbench::{median, tail, Ratio, SpanId, SpanLog};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, as listed in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p1", "ms"),
    ("op_ms_pn", "ms"),
    ("speedup_pn", "ratio"),
    ("cpu_ms_pn", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, as listed in `BENCHMARK.json`. A
/// workload that does not run a layer reports 0 for that layer's rows.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.build_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.freeze_ms", "ms"),
    ("graph.overlay_apply_ms", "ms"),
    ("graph.value_strs", "count"),
    ("match.plan_ms", "ms"),
    ("match.enum_ms", "ms"),
    ("match.matches", "count"),
    ("match.matches_per_s", "1/s"),
    ("match.bitset_steps", "count"),
    ("core.canonical_ms", "ms"),
    ("core.plans_ms", "ms"),
    ("core.units_ms", "ms"),
    ("core.order_ms", "ms"),
    ("core.reason_ms", "ms"),
    ("core.model_ms", "ms"),
    ("core.serial_share", "share"),
    ("core.units_generated", "count"),
    ("core.matches", "count"),
    ("core.delta_ops_broadcast", "count"),
    ("core.pending", "count"),
    ("core.rechecks", "count"),
    ("runtime.busy_ms_p1", "ms"),
    ("runtime.busy_ms", "ms"),
    ("runtime.idle_ms", "ms"),
    ("runtime.makespan_ms", "ms"),
    ("runtime.units_dispatched", "count"),
    ("runtime.units_stolen", "count"),
    ("runtime.units_split", "count"),
    ("runtime.steal_share", "share"),
    ("runtime.cpu_inflation", "ratio"),
    ("runtime.dispatch_ns_per_unit", "ns"),
    ("detect.index_ms", "ms"),
    ("detect.units", "count"),
    ("detect.violations", "count"),
    ("incr.seed_ms", "ms"),
    ("incr.apply_ms_p50", "ms"),
    ("incr.apply_ms_tail", "ms"),
    ("incr.apply_ms_max", "ms"),
    ("incr.rerun_pivots", "count"),
    ("incr.dirty_nodes", "count"),
    ("incr.evicted", "count"),
    ("incr.compactions", "count"),
    ("incr.ops_per_s", "1/s"),
    ("chase.scan_ms", "ms"),
    ("chase.apply_ms", "ms"),
    ("chase.rounds", "count"),
    ("chase.premise_evals", "count"),
    ("chase.matches_enumerated", "count"),
    ("chase.generated_nodes", "count"),
    ("chase.realization_checks", "count"),
    ("chase.apply_independent", "count"),
    ("chase.apply_conflicts", "count"),
    ("chase.conflict_share", "share"),
    ("trace.staged_overhead_pct", "%"),
    ("trace.enabled_overhead_pct", "%"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("ledger.coverage", "share"),
    ("e2e.median_ms_p1", "ms"),
    ("e2e.median_ms_pn", "ms"),
    ("e2e.tail_ms_pn", "ms"),
    ("e2e.tail_pct", "%"),
    ("e2e.samples", "count"),
    ("host.ref_ms", "ms"),
];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Units of the scheduler dispatch micro-run (`runtime.dispatch_ns_per_unit`).
const DISPATCH_UNITS: usize = 1_000_000;

/// What one staged (stage-by-stage) operation cost.
pub struct Staged {
    /// Wall time of the whole staged operation, ms.
    pub wall_ms: f64,
    /// Part of `wall_ms` spent in stage calls the following fused stage
    /// repeats internally (e.g. `generate_units` before `run_reason`).
    /// Subtracted before comparing staged against fused wall.
    pub repeated_ms: f64,
}

/// One operation run with the library's own `TraceSpec::enabled()`.
#[derive(Clone, Copy)]
pub struct LibTrace {
    /// Wall time of the operation, ms.
    pub wall_ms: f64,
    /// Events the library recorded.
    pub events: u64,
    /// Events its ring buffers dropped.
    pub dropped: u64,
}

/// One benchmark workload: seeded inputs, a closed-loop operation at a
/// given worker count, a correctness oracle, and a staged replay.
pub trait Workload: Sized {
    /// Workload name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Rounds (one operation per side) every run makes even when
    /// `--seconds` is already spent.
    const MIN_ROUNDS: usize = 3;
    /// An end-to-end run stops only after a multiple of this many rounds,
    /// so a workload whose operations differ in cost along a fixed
    /// sequence always measures whole passes over it.
    const ROUND_QUANTUM: usize = 1;
    /// An operation's result, checked outside the timed region.
    type Out;

    /// Generate inputs from `seed` and seed any session state. `n` is the
    /// parallel side's worker count.
    fn setup(seed: u64, smoke: bool, n: usize) -> Self;
    /// Time `setup` spent in `gfd-gen` calls, ms.
    fn gen_ms(&self) -> f64;
    /// One fused operation, library tracing off.
    fn op(&mut self, workers: usize) -> Self::Out;
    /// Is `out` the known answer? Untimed.
    fn check(&mut self, workers: usize, out: Self::Out) -> bool;
    /// End-of-run oracle over whatever `check` retained. Untimed.
    fn finish(&mut self) -> bool;
    /// One operation replayed stage by stage through the layers' public
    /// functions, recording a span per stage and the layer's counts.
    fn staged(&mut self, workers: usize, rec: &mut Recorder) -> (Self::Out, Staged);
    /// One operation at `workers = n` with library tracing enabled.
    fn library_traced(&mut self) -> LibTrace;
    /// Per-layer probes that are not part of an operation (`match.*`,
    /// `graph.freeze_ms`, …); called once per traced iteration.
    fn probes(&mut self, rec: &mut Recorder);
}

/// Samples and counts gathered by a traced run.
#[derive(Default)]
pub struct Recorder {
    /// Spans recorded around the calls into each layer.
    pub spans: SpanLog,
    samples: BTreeMap<&'static str, Vec<f64>>,
    exact: BTreeMap<&'static str, f64>,
    /// Exact counts that did not repeat: name → `(first, a later value)`.
    mismatches: BTreeMap<&'static str, (f64, f64)>,
    next_op: u32,
}

impl Recorder {
    /// Open the root span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        self.next_op += 1;
        self.spans.open(name, None, self.next_op)
    }

    /// Close an operation's root span; books its ledger coverage.
    pub fn end_op(&mut self, root: SpanId) -> f64 {
        let ms = self.spans.close(root);
        let coverage = self.spans.coverage(root);
        self.sample("ledger.coverage", coverage);
        ms
    }

    /// A timing, or a count that depends on scheduling: the run reports
    /// the median of all samples.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// A figure the workload aggregates itself over all its samples so
    /// far (a tail, a maximum): the latest reading replaces earlier ones.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    /// A count that must repeat exactly for one seed. The first value is
    /// reported; a later, different one marks the run incorrect.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        let first = *self.exact.entry(name).or_insert(value);
        if first != value {
            self.mismatches.insert(name, (first, value));
        }
    }

    fn value(&self, name: &str) -> f64 {
        match (self.exact.get(name), self.samples.get(name)) {
            (Some(v), _) => *v,
            (None, Some(s)) => median(s),
            (None, None) => 0.0,
        }
    }
}

/// What a run reports.
pub struct Outcome {
    /// Operations attempted (warm-ups included: they are checked too).
    pub attempted: u64,
    /// Operations whose result was not the known answer.
    pub failed: u64,
    /// No failed operation, every oracle passed, every exact count repeated.
    pub correct: bool,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every ratio reported, with its base (end-to-end runs).
    pub ratios: Vec<(&'static str, Ratio)>,
    /// Spans to write out (traced runs only).
    pub spans: Option<SpanLog>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn book(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `full`, or `full / 20` under `--smoke`.
pub fn sized(full: usize, smoke: bool) -> usize {
    if smoke {
        full / 20
    } else {
        full
    }
}

/// Least time between two reference readings taken by [`HostLoad::tick`]:
/// with a reading of ≈ 9 ms, at most a twentieth of a run.
const READING_GAP_S: f64 = 0.2;
/// A timed interval is compensated by the readings taken up to this long
/// before it started or after it ended.
const READING_WINDOW_S: f64 = 1.5;

/// The host's load over a run, as a timeline of reference-kernel
/// readings, and the compensation it implies for a timed interval.
struct HostLoad {
    kernel: Reference,
    epoch: Instant,
    /// `(seconds since epoch, reading in ms)`, in time order.
    readings: Vec<(f64, f64)>,
}

impl HostLoad {
    fn new() -> Self {
        let mut kernel = Reference::new();
        kernel.reading_ms(); // warm its caches and TLB entries
        HostLoad {
            kernel,
            epoch: Instant::now(),
            readings: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn read(&mut self) {
        let ms = self.kernel.reading_ms();
        self.readings.push((self.now(), ms));
    }

    /// Take a reading unless the latest is fresher than [`READING_GAP_S`].
    fn tick(&mut self) {
        if self
            .readings
            .last()
            .is_none_or(|&(at, _)| self.now() - at >= READING_GAP_S)
        {
            self.read();
        }
    }

    /// Median reading within [`READING_WINDOW_S`] of the interval
    /// `[t0, t1]`. Every timed interval has one: a reading is taken, or
    /// is at most [`READING_GAP_S`] old, when it starts.
    fn reference_ms(&self, t0: f64, t1: f64) -> f64 {
        let near: Vec<f64> = self
            .readings
            .iter()
            .filter(|&&(at, _)| at >= t0 - READING_WINDOW_S && at <= t1 + READING_WINDOW_S)
            .map(|&(_, ms)| ms)
            .collect();
        median(&near)
    }

    /// What a time measured over `[t0, t1]` is multiplied by to read as
    /// if the host had been quiet.
    fn factor(&self, t0: f64, t1: f64) -> f64 {
        REFERENCE_NOMINAL_MS / self.reference_ms(t0, t1)
    }
}

/// Set up, then one checked warm-up operation per side. Returns the
/// workload and the seconds from start to "ready for the first timed op".
fn ready<W: Workload>(seed: u64, smoke: bool, n: usize, tally: &mut Tally) -> (W, f64) {
    let t = Instant::now();
    let mut w = W::setup(seed, smoke, n);
    let outs = [1, n].map(|p| (p, w.op(p)));
    let setup_s = t.elapsed().as_secs_f64();
    for (p, out) in outs {
        tally.book(w.check(p, out));
    }
    (w, setup_s)
}

/// `[1, n]` on even rounds, `[n, 1]` on odd ones.
fn sides(round: usize, n: usize) -> [usize; 2] {
    if round.is_multiple_of(2) {
        [1, n]
    } else {
        [n, 1]
    }
}

/// One timed operation: when it ran (seconds on the [`HostLoad`] clock)
/// and what it cost.
struct Sample {
    t0: f64,
    t1: f64,
    wall_ms: f64,
    cpu_ms: f64,
}

/// The end-to-end run: fused calls, tracing off, `seconds` of measuring.
pub fn end_to_end<W: Workload>(seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let n = probe::parallel_workers();
    let mut tally = Tally::default();
    let mut load = HostLoad::new();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        // Free the previous instance first: peak RSS is one workload's.
        drop(w.take());
        load.read();
        let t0 = load.now();
        let (fresh, setup_s) = ready::<W>(seed, smoke, n, &mut tally);
        let t1 = load.now();
        load.read();
        setups.push(setup_s * load.factor(t0, t1));
        w = Some(fresh);
    }
    let mut w = w.expect("at least one set-up");

    let mut samples: [Vec<Sample>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut round = 0;
    while round < W::MIN_ROUNDS
        || start.elapsed().as_secs_f64() < seconds
        || !round.is_multiple_of(W::ROUND_QUANTUM)
    {
        for p in sides(round, n) {
            load.tick();
            let cpu0 = probe::process_cpu();
            let t0 = load.now();
            let out = w.op(p);
            let t1 = load.now();
            let cpu_ms = (probe::process_cpu() - cpu0).as_secs_f64() * 1e3;
            samples[usize::from(p > 1)].push(Sample {
                t0,
                t1,
                wall_ms: (t1 - t0) * 1e3,
                cpu_ms,
            });
            tally.book(w.check(p, out));
        }
        round += 1;
    }
    load.read();
    let oracle_ok = w.finish();

    let compensated = |side: &[Sample], cost: fn(&Sample) -> f64| {
        let v: Vec<f64> = side
            .iter()
            .map(|s| cost(s) * load.factor(s.t0, s.t1))
            .collect();
        median(&v)
    };
    let p1 = compensated(&samples[0], |s| s.wall_ms);
    let pn = compensated(&samples[1], |s| s.wall_ms);
    let speedup = Ratio::new(p1, pn);
    let whole_run = load.reference_ms(f64::NEG_INFINITY, f64::INFINITY);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0 && oracle_ok,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("op_ms_p1", p1),
            ("op_ms_pn", pn),
            ("speedup_pn", speedup.value),
            ("cpu_ms_pn", compensated(&samples[1], |s| s.cpu_ms)),
            // Net of the reference kernel's buffers, resident throughout.
            (
                "peak_rss_mb",
                probe::peak_rss_mb() - load.kernel.resident_mb(),
            ),
        ],
        ratios: vec![
            ("speedup_pn", speedup),
            (
                "host load (reference kernel ms / nominal)",
                Ratio::new(whole_run, REFERENCE_NOMINAL_MS),
            ),
        ],
        spans: None,
    }
}

/// The traced run: per iteration one staged operation per side, one
/// fused operation per side (tracing off — the baseline the staged
/// replay and the library's tracing are compared against), one
/// operation with the library's tracing on, and the layer probes.
pub fn traced<W: Workload>(seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let n = probe::parallel_workers();
    let mut tally = Tally::default();
    let (mut w, _) = ready::<W>(seed, smoke, n, &mut tally);
    let mut rec = Recorder::default();
    rec.sample("gen.build_ms", w.gen_ms());
    let mut reference = Reference::new();

    let (mut staged_pn, mut enabled_pn) = (Vec::new(), Vec::new());
    let (mut fused_p1, mut fused_pn) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while round < W::MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for p in sides(round, n) {
            let (out, staged) = w.staged(p, &mut rec);
            if p == n {
                staged_pn.push(staged.wall_ms - staged.repeated_ms);
            }
            tally.book(w.check(p, out));
        }
        for p in sides(round, n) {
            let t = Instant::now();
            let out = w.op(p);
            if p == 1 { &mut fused_p1 } else { &mut fused_pn }.push(ms_since(t));
            tally.book(w.check(p, out));
        }
        let lib = w.library_traced();
        enabled_pn.push(lib.wall_ms);
        rec.sample("trace.events", lib.events as f64);
        rec.sample("trace.dropped", lib.dropped as f64);
        w.probes(&mut rec);
        rec.sample("host.ref_ms", reference.reading_ms());
        round += 1;
    }
    let oracle_ok = w.finish();

    rec.sample(
        "runtime.dispatch_ns_per_unit",
        dispatch_ns_per_unit(n, sized(DISPATCH_UNITS, smoke)),
    );
    rec.exact(
        "graph.value_strs",
        gfd_graph::ValueTable::str_count() as f64,
    );

    let fused = median(&fused_pn);
    let pct_over = |v: &[f64]| 100.0 * (median(v) - fused) / fused;
    rec.sample("trace.staged_overhead_pct", pct_over(&staged_pn));
    rec.sample("trace.enabled_overhead_pct", pct_over(&enabled_pn));
    // With fewer than 11 samples no percentile has ten samples beyond
    // it; the median is what can honestly be said then.
    let (pct, value) = tail(&fused_pn).map_or((50.0, fused), |t| (t.pct, t.value));
    rec.sample("e2e.median_ms_p1", median(&fused_p1));
    rec.sample("e2e.median_ms_pn", fused);
    rec.sample("e2e.tail_ms_pn", value);
    rec.sample("e2e.tail_pct", pct);
    rec.sample("e2e.samples", fused_pn.len() as f64);

    for (name, (first, later)) in &rec.mismatches {
        eprintln!("gfdbench: exact count {name} did not repeat: {first} then {later}");
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0 && oracle_ok && rec.mismatches.is_empty(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, _)| (name, rec.value(name)))
            .collect(),
        ratios: Vec::new(),
        spans: Some(rec.spans),
    }
}

/// A task whose units do nothing: what is left is the scheduler's own
/// cost of seeding, dispatching, stealing and retiring a unit.
struct NoopTask;

impl Task for NoopTask {
    type Unit = usize;
    type Worker = usize;

    fn worker(&self, _id: usize) -> usize {
        0
    }

    fn run_unit(&self, acc: &mut usize, unit: usize, _ctx: &WorkerCtx<'_, usize>) {
        *acc = std::hint::black_box(*acc + unit);
    }
}

fn dispatch_ns_per_unit(workers: usize, units: usize) -> f64 {
    let seed: Vec<usize> = (0..units).collect();
    let stop = AtomicBool::new(false);
    let t = Instant::now();
    let run = run_scheduler_with(
        &NoopTask,
        seed,
        workers,
        DispatchMode::default(),
        &stop,
        SchedOptions::default(),
    );
    let ns = t.elapsed().as_secs_f64() * 1e9;
    assert_eq!(run.units_executed, units as u64, "no-op run lost units");
    ns / units as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_interval_is_compensated_by_the_readings_near_it() {
        let mut load = HostLoad::new();
        let busy = 2.0 * REFERENCE_NOMINAL_MS;
        load.readings = vec![
            (0.0, REFERENCE_NOMINAL_MS),
            (3.0, busy),
            (3.5, busy),
            (10.0, REFERENCE_NOMINAL_MS),
        ];
        // A quiet stretch reads as measured, a loaded one is scaled down
        // by the kernel's own slow-down.
        assert_eq!(load.factor(9.0, 10.0), 1.0);
        assert_eq!(load.factor(3.1, 3.4), 0.5);
        // Straddling both: the median of the readings in the window.
        assert_eq!(
            load.factor(0.5, 1.6),
            REFERENCE_NOMINAL_MS / (1.5 * REFERENCE_NOMINAL_MS)
        );
    }
}
