//! `stream_deltas`: incremental detection under a stream of mixed
//! insert / delete / attribute / node updates — writes beside reads, the
//! matcher over the `DeltaCsr` overlay instead of the frozen CSR.

use super::{match_probe, record_runtime};
use crate::harness::{ms_since, sized, LibTrace, Recorder, Staged, Workload};
use gfd_core::{DepSet, GfdSet};
use gfd_detect::{detect, initial_units, DetectConfig, RulePlans};
use gfd_gen::{
    delta_stream, plant_violation, random_graph, real_life_workload, Dataset, DeltaStreamConfig,
    GraphGenConfig,
};
use gfd_graph::{DeltaBatch, DeltaIndex, Graph, LabelIndex};
use gfd_incr::{BatchReport, IncrConfig, IncrementalDetector};
use gfd_runtime::{RunMetrics, TraceSpec};
use gfdbench::{median, tail};
use std::time::Instant;

const NODES: usize = 30_000;
/// Edges per node.
const DENSITY: usize = 3;
const ATTR_PROB: f64 = 0.3;
/// Updates per batch as a share of |E| (≈ 225 mixed ops on the full
/// graph): with the default 25 % compaction threshold a session
/// re-freezes about every 150 batches.
const EDGE_FRACTION: f64 = 0.0025;
const RULES: usize = 40;
/// The rule set is one fixed draw: per-batch cost follows the largest
/// pattern radius among the rules, an extreme statistic that moves 70 %
/// between draws of 40 rules, while graph and stream (which `--seed`
/// does drive) move it 2 %. Same draw as `exp5`/`exp6`.
const RULE_SEED: u64 = 7;
const PLANTED: usize = 10;
/// Batches in the stream. It is generated once; a session that reaches
/// its end starts over on a fresh copy of the seed graph. Every
/// end-to-end run therefore measures whole passes over the same batches
/// — per-batch cost climbs as the overlay fills and drops at each
/// compaction — and the process's memory does not grow with the number
/// of batches a fast host gets through. Even: a traced round consumes
/// two batches per session.
const STREAM: usize = 300;
/// The live violation set is compared with a from-scratch `detect` on
/// the independently mutated reference graph every this many batches.
const ORACLE_EVERY: usize = 100;
/// Exact counts are summed over this many leading batches of the
/// one-worker session (even: a traced round consumes two); a traced
/// run's minimum rounds cover them.
const COUNTED: usize = 200;

fn session(graph: &Graph, sigma: &GfdSet, workers: usize, trace: TraceSpec) -> IncrementalDetector {
    let config = IncrConfig {
        detect: DetectConfig {
            trace,
            ..DetectConfig::with_workers(workers)
        },
        ..IncrConfig::default()
    };
    IncrementalDetector::new(graph.clone(), sigma.clone(), config)
}

/// A `DeltaIndex` + graph pair fed the same batches as the sessions, so
/// the overlay apply, re-planning and matcher can be timed on their own.
struct Shadow {
    graph: Graph,
    index: DeltaIndex,
    cursor: usize,
    /// Cursor at the latest mirrored compaction (both sessions compact
    /// at the same batch; the shadow re-freezes once).
    compacted_at: usize,
}

/// Sums over the first [`COUNTED`] batches of the one-worker session.
#[derive(Default)]
struct Counted {
    batches: usize,
    rerun_pivots: usize,
    dirty_nodes: usize,
    evicted: usize,
    compactions: usize,
}

/// One `IncrementalDetector::apply(batch)`.
pub struct StreamDeltas {
    sigma: GfdSet,
    batches: Vec<DeltaBatch>,
    /// `[workers = 1, workers = n]`, each replaying the same stream.
    sessions: [IncrementalDetector; 2],
    cursor: [usize; 2],
    /// Mutated by `DeltaBatch::apply_to_graph` only — never by a session.
    reference: Graph,
    reference_cursor: usize,
    base: Graph,
    gen_ms: f64,
    seed_ms: f64,
    n: usize,
    busy_p1: f64,
    // Traced runs only:
    shadow: Option<Shadow>,
    lib_traced: Option<(IncrementalDetector, usize)>,
    counted: Counted,
    booked: bool,
    apply_ms_pn: Vec<f64>,
    ops_pn: usize,
    /// The latest library-traced reading, repeated on the one call per
    /// pass that finds the stream just rewound and nothing to apply.
    last_lib: Option<LibTrace>,
}

impl StreamDeltas {
    fn side(workers: usize) -> usize {
        usize::from(workers > 1)
    }

    /// Start the stream over: fresh sessions on the seed graph. Called
    /// (untimed) once both sessions have consumed every batch.
    fn rewind(&mut self) {
        self.sessions =
            [1, self.n].map(|p| session(&self.base, &self.sigma, p, TraceSpec::disabled()));
        self.cursor = [0; 2];
        self.reference = self.base.clone();
        self.reference_cursor = 0;
        self.shadow = None;
        self.lib_traced = None;
    }

    fn apply_next(&mut self, workers: usize) -> BatchReport {
        let side = Self::side(workers);
        let report = self.sessions[side].apply(&self.batches[self.cursor[side]]);
        self.cursor[side] += 1;
        report
    }

    fn detect_from_scratch(&self) -> gfd_detect::DetectionReport {
        detect(
            &self.reference,
            &self.sigma,
            &DetectConfig::with_workers(self.n),
        )
    }

    /// Bring the shadow up to `upto` batches, untimed, mirroring a
    /// compaction at the batch where the session made one.
    fn shadow_catch_up(
        &mut self,
        upto: usize,
        compacted_at: Option<usize>,
        rec: Option<&mut Recorder>,
    ) {
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        while shadow.cursor < upto {
            shadow
                .index
                .apply(&self.batches[shadow.cursor], &mut shadow.graph);
            shadow.cursor += 1;
        }
        if compacted_at == Some(shadow.cursor) && shadow.compacted_at != shadow.cursor {
            shadow.compacted_at = shadow.cursor;
            let t = Instant::now();
            shadow.index = LabelIndex::build(&shadow.graph).into_delta();
            if let Some(rec) = rec {
                rec.sample("graph.freeze_ms", ms_since(t));
            }
        }
    }
}

impl Workload for StreamDeltas {
    const NAME: &'static str = "stream_deltas";
    /// Traced runs must reach [`COUNTED`] batches whatever `--seconds`
    /// says (two per round and session: one staged, one fused).
    const MIN_ROUNDS: usize = COUNTED / 2;
    /// End-to-end runs (one batch per round and session) measure whole
    /// passes over the stream.
    const ROUND_QUANTUM: usize = STREAM;
    type Out = BatchReport;

    fn setup(seed: u64, smoke: bool, n: usize) -> Self {
        let t = Instant::now();
        let w = real_life_workload(Dataset::DBpedia, RULES, RULE_SEED, None);
        let nodes = sized(NODES, smoke);
        let mut graph = random_graph(
            &w.schema,
            &GraphGenConfig {
                nodes,
                edges: nodes * DENSITY,
                attr_prob: ATTR_PROB,
                seed,
            },
        );
        for (i, (_, gfd)) in w.sigma.iter().take(PLANTED).enumerate() {
            plant_violation(
                &mut graph,
                gfd,
                &w.schema,
                seed.wrapping_add(600 + i as u64),
            );
        }
        let batches = delta_stream(
            &graph,
            &w.schema,
            &DeltaStreamConfig {
                batches: STREAM,
                edge_fraction: EDGE_FRACTION,
                seed: seed.wrapping_add(1000),
                ..DeltaStreamConfig::default()
            },
        );
        let gen_ms = ms_since(t);

        let p1 = session(&graph, &w.sigma, 1, TraceSpec::disabled());
        let t = Instant::now();
        let pn = session(&graph, &w.sigma, n, TraceSpec::disabled());
        let seed_ms = ms_since(t);

        StreamDeltas {
            sigma: w.sigma,
            batches,
            sessions: [p1, pn],
            cursor: [0; 2],
            reference: graph.clone(),
            reference_cursor: 0,
            base: graph,
            gen_ms,
            seed_ms,
            n,
            busy_p1: 0.0,
            shadow: None,
            lib_traced: None,
            counted: Counted::default(),
            booked: false,
            apply_ms_pn: Vec::new(),
            ops_pn: 0,
            last_lib: None,
        }
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }

    fn op(&mut self, workers: usize) -> BatchReport {
        self.apply_next(workers)
    }

    fn check(&mut self, workers: usize, report: BatchReport) -> bool {
        let side = Self::side(workers);
        let at = self.cursor[side];
        while self.reference_cursor < at {
            self.batches[self.reference_cursor].apply_to_graph(&mut self.reference);
            self.reference_cursor += 1;
        }
        if side == 0 && self.counted.batches < COUNTED {
            self.counted.batches += 1;
            self.counted.rerun_pivots += report.rerun_pivots;
            self.counted.dirty_nodes += report.dirty_nodes;
            self.counted.evicted += report.evicted;
            self.counted.compactions += usize::from(report.compacted);
        }
        self.shadow_catch_up(at, report.compacted.then_some(at), None);
        let live = self.sessions[side].violations();
        let mut ok = report.violations_total == live.len();
        if at.is_multiple_of(ORACLE_EVERY) && self.reference_cursor == at {
            ok &= self.detect_from_scratch().violations == live;
        }
        if self.cursor == [STREAM; 2] {
            self.rewind();
        }
        ok
    }

    fn finish(&mut self) -> bool {
        if self.cursor[0] != self.cursor[1] || self.reference_cursor != self.cursor[0] {
            return false;
        }
        let full = self.detect_from_scratch().violations;
        let lib_ok = self
            .lib_traced
            .as_ref()
            .is_none_or(|(s, at)| *at != self.cursor[0] || s.violations() == full);
        lib_ok && self.sessions.iter().all(|s| s.violations() == full)
    }

    fn staged(&mut self, workers: usize, rec: &mut Recorder) -> (BatchReport, Staged) {
        let side = Self::side(workers);
        let at = self.cursor[side];
        if self.shadow.is_none() {
            // The seed-time freeze and unit seeding, timed on their own.
            let t = Instant::now();
            let index = DeltaIndex::build(&self.base);
            rec.sample("graph.freeze_ms", ms_since(t));
            let deps = DepSet::from_gfds(self.sigma.clone());
            let plans = RulePlans::build(&deps, &index);
            let units = initial_units(&deps, &index, &plans, DetectConfig::default().batch_size);
            rec.exact("detect.units", units.len() as f64);
            rec.sample("incr.seed_ms", self.seed_ms);
            self.shadow = Some(Shadow {
                graph: self.base.clone(),
                index,
                cursor: 0,
                compacted_at: 0,
            });
        }

        let root = rec.begin_op("stream_deltas.op");
        // The side that reaches a batch first also runs it through the
        // shadow, stage by stage: the overlay write and the per-batch
        // re-planning that `apply` repeats internally.
        let mut repeated_ms = 0.0;
        let shadow = self.shadow.as_mut().expect("created above");
        if shadow.cursor == at {
            let batch = &self.batches[at];
            let (_, overlay_ms) = rec.spans.time("graph.overlay_apply", root, || {
                shadow.index.apply(batch, &mut shadow.graph)
            });
            shadow.cursor += 1;
            let deps = self.sessions[side].sigma();
            let (_, plans_ms) = rec.spans.time("detect.rule_plans", root, || {
                RulePlans::build(deps, &shadow.index)
            });
            rec.sample("graph.overlay_apply_ms", overlay_ms);
            rec.sample("detect.index_ms", plans_ms);
            repeated_ms = overlay_ms + plans_ms;
        }
        let batch_ops = self.batches[at].len();
        let (report, apply_ms) = rec
            .spans
            .time("incr.apply", root, || self.apply_next(workers));
        let wall_ms = rec.end_op(root);
        self.shadow_catch_up(at + 1, report.compacted.then_some(at + 1), Some(rec));

        record_runtime(rec, workers, &report.metrics, &mut self.busy_p1);
        if workers > 1 {
            rec.sample("incr.apply_ms_p50", apply_ms);
            self.apply_ms_pn.push(apply_ms);
            self.ops_pn += batch_ops;
        }
        (
            report,
            Staged {
                wall_ms,
                repeated_ms,
            },
        )
    }

    fn library_traced(&mut self) -> LibTrace {
        let (s, at) = self.lib_traced.get_or_insert_with(|| {
            (
                session(&self.base, &self.sigma, self.n, TraceSpec::enabled()),
                0,
            )
        });
        // Catch up with the untraced sessions; report the mean batch.
        let upto = self.cursor[1];
        if let (true, Some(last)) = (*at == upto, self.last_lib) {
            return last;
        }
        let batches = (upto - *at).max(1) as f64;
        let mut metrics = RunMetrics::default();
        let t = Instant::now();
        while *at < upto {
            metrics.merge(&s.apply(&self.batches[*at]).metrics);
            *at += 1;
        }
        let reading = LibTrace {
            wall_ms: ms_since(t) / batches,
            events: (metrics.trace.events.len() as f64 / batches) as u64,
            dropped: metrics.trace.dropped,
        };
        self.last_lib = Some(reading);
        reading
    }

    fn probes(&mut self, rec: &mut Recorder) {
        let Some(shadow) = &self.shadow else { return };
        let matched = match_probe(
            rec,
            &shadow.graph,
            &shadow.index,
            self.sigma.iter().map(|(_, g)| &g.pattern),
        );
        // The graph moves under this workload, so the rows that must
        // repeat exactly are booked once: on the iteration that ends the
        // counted prefix (the same batch on every run — rounds consume a
        // fixed number of batches).
        if !self.booked && self.cursor[0] >= COUNTED {
            self.booked = true;
            matched.book(rec);
            let g = self.sessions[0].graph();
            rec.exact("graph.nodes", g.node_count() as f64);
            rec.exact("graph.edges", g.edge_count() as f64);
            rec.exact(
                "detect.violations",
                self.sessions[0].violations().len() as f64,
            );
            rec.exact("incr.rerun_pivots", self.counted.rerun_pivots as f64);
            rec.exact("incr.dirty_nodes", self.counted.dirty_nodes as f64);
            rec.exact("incr.evicted", self.counted.evicted as f64);
            rec.exact("incr.compactions", self.counted.compactions as f64);
        }
        if !self.apply_ms_pn.is_empty() {
            let ms = &self.apply_ms_pn;
            rec.gauge(
                "incr.apply_ms_tail",
                tail(ms).map_or(median(ms), |t| t.value),
            );
            rec.gauge("incr.apply_ms_max", ms.iter().copied().fold(0.0, f64::max));
            rec.gauge(
                "incr.ops_per_s",
                self.ops_pn as f64 / (ms.iter().sum::<f64>() / 1e3),
            );
        }
    }
}
