//! `detect_hub`: full violation detection on a hub-heavy (power-law)
//! graph with string-attribute rules — the match-bound workload.

use super::{fingerprint, match_probe, record_runtime};
use crate::harness::{ms_since, sized, LibTrace, Recorder, Staged, Workload};
use gfd_core::{find_violations, DepSet, GfdSet};
use gfd_detect::{detect, detect_units, initial_units, DetectConfig, DetectionReport, RulePlans};
use gfd_gen::{hub_workload, HubGenConfig};
use gfd_graph::{Graph, LabelIndex};
use gfd_runtime::TraceSpec;
use std::time::Instant;

const NODES: usize = 50_000;
const HUBS: usize = 64;
const HUB_DEGREE: usize = 192;
const RULES: usize = 12;

/// `(violation count, order-insensitive fingerprint)`.
type Digest = (usize, u64);

fn digest(report: &DetectionReport) -> Digest {
    (
        report.violations.len(),
        fingerprint(report.violations.iter().map(|v| (v.gfd.index(), &*v.m))),
    )
}

/// `detect(G, Σ)` → the complete violation report.
pub struct DetectHub {
    graph: Graph,
    sigma: GfdSet,
    gen_ms: f64,
    n: usize,
    busy_p1: f64,
    /// The first report's digest: every later one, at either worker
    /// count, must equal it, and so must the sequential oracle.
    expected: Option<Digest>,
}

impl Workload for DetectHub {
    const NAME: &'static str = "detect_hub";
    /// `None` when the sweep was truncated or interrupted.
    type Out = Option<Digest>;

    fn setup(seed: u64, smoke: bool, n: usize) -> Self {
        let t = Instant::now();
        let w = hub_workload(&HubGenConfig {
            nodes: sized(NODES, smoke),
            hubs: HUBS,
            hub_degree: HUB_DEGREE,
            rules: RULES,
            seed,
            ..HubGenConfig::default()
        });
        DetectHub {
            graph: w.graph,
            sigma: w.sigma,
            gen_ms: ms_since(t),
            n,
            busy_p1: 0.0,
            expected: None,
        }
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }

    fn op(&mut self, workers: usize) -> Self::Out {
        let r = detect(
            &self.graph,
            &self.sigma,
            &DetectConfig::with_workers(workers),
        );
        (!r.truncated && r.interrupted.is_none()).then(|| digest(&r))
    }

    fn check(&mut self, _workers: usize, out: Self::Out) -> bool {
        out.is_some_and(|d| *self.expected.get_or_insert(d) == d)
    }

    fn finish(&mut self) -> bool {
        // Independent of the scheduler and of `gfd-detect`: the plain
        // sequential validator in `gfd-core`.
        let oracle = find_violations(&self.graph, &self.sigma, usize::MAX);
        let d = (
            oracle.len(),
            fingerprint(oracle.iter().map(|v| (v.gfd.index(), &*v.m))),
        );
        self.expected == Some(d)
    }

    fn staged(&mut self, workers: usize, rec: &mut Recorder) -> (Self::Out, Staged) {
        let cfg = DetectConfig::with_workers(workers);
        let root = rec.begin_op("detect_hub.op");
        // `detect` lifts Σ into the generalized rule model on every call.
        let (deps, _) = rec.spans.time("core.depset_from_gfds", root, || {
            DepSet::from_gfds(self.sigma.clone())
        });
        let (index, freeze_ms) = rec
            .spans
            .time("graph.freeze", root, || LabelIndex::build(&self.graph));
        let (plans, plans_ms) = rec.spans.time("detect.rule_plans", root, || {
            RulePlans::build(&deps, &index)
        });
        let (units, units_ms) = rec.spans.time("detect.initial_units", root, || {
            initial_units(&deps, &index, &plans, cfg.batch_size)
        });
        let unit_count = units.len();
        let (report, _) = rec.spans.time("detect.detect_units", root, || {
            detect_units(&self.graph, &index, &deps, &plans, units, &cfg)
        });
        let wall_ms = rec.end_op(root);

        record_runtime(rec, workers, &report.metrics, &mut self.busy_p1);
        if workers == 1 {
            rec.sample("graph.freeze_ms", freeze_ms);
            rec.sample("detect.index_ms", plans_ms + units_ms);
            rec.exact("detect.units", unit_count as f64);
            rec.exact("detect.violations", report.violations.len() as f64);
        }
        let out = (!report.truncated && report.interrupted.is_none()).then(|| digest(&report));
        (
            out,
            Staged {
                wall_ms,
                repeated_ms: 0.0,
            },
        )
    }

    fn library_traced(&mut self) -> LibTrace {
        let cfg = DetectConfig {
            trace: TraceSpec::enabled(),
            ..DetectConfig::with_workers(self.n)
        };
        let t = Instant::now();
        let r = detect(&self.graph, &self.sigma, &cfg);
        LibTrace {
            wall_ms: ms_since(t),
            events: r.metrics.trace.events.len() as u64,
            dropped: r.metrics.trace.dropped,
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        rec.exact("graph.nodes", self.graph.node_count() as f64);
        rec.exact("graph.edges", self.graph.edge_count() as f64);
        let index = LabelIndex::build(&self.graph);
        match_probe(
            rec,
            &self.graph,
            &index,
            self.sigma.iter().map(|(_, g)| &g.pattern),
        )
        .book(rec);
    }
}
