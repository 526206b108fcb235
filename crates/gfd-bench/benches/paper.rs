//! The paper's evaluation (§VII: Fig. 5, Exp-1…4) and the beyond-paper
//! experiments (Exp-5…8, ablations) as **one table**: an experiment is an
//! entry of [`TABLE`] — id, figure, the paper's reported shape, the swept
//! axis, a workload builder, the variants to measure — and `main` is the
//! one loop that sweeps it, prints it and writes `BENCH_paper.json`.
//!
//! `cargo bench -p gfd-bench --bench paper` runs the whole table and writes
//! the JSON; `… --bench paper -- exp1` runs the ids containing "exp1" and
//! only prints; `GFD_SCALE=full` selects the paper-sized values.
//!
//! Every verdict and invariance claim is asserted by the variant that
//! produces the sample, so a run that finishes has also checked itself.

use gfd_bench::{
    banner, check_report, fmt_duration, report_json, scale, time_median, time_once, Report, Row,
    Sample, Scale, Table,
};
use gfd_chase::{chase_imp, dep_sat_with_config, ChaseConfig};
use gfd_core::{imp_with_config, sat_with_config, DepSet, Dependency, Literal, ReasonConfig};
use gfd_detect::{detect, DetectConfig, ViolationRecord};
use gfd_ged::{ged_sat_with_config, Ged, GedLiteral, GedReasonConfig, GedSatOutcome, GedSet};
use gfd_gen::{real_life_workload, synthetic_workload, Dataset, HubGenConfig, ImpProbe};
use gfd_graph::{AttrId, DeltaBatch, Graph, LabelId, Pattern, VarId, Vocab};
use gfd_incr::{IncrConfig, IncrementalDetector};
use gfd_io::jsonval::Json;
use gfd_runtime::RunMetrics;
use std::cell::OnceCell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Duration;

// ---- the grid: axes, run parameters, workloads --------------------------

/// What an experiment sweeps. `Sigma`, `K`, `L`, `Dataset` and
/// `DeltaFraction` shape the *workload* (rebuilt per value); the others
/// shape the *run* and leave the workload alone.
#[derive(Clone, Copy, PartialEq)]
enum Axis {
    Workers,
    Sigma,
    K,
    L,
    /// Straggler threshold, in microseconds.
    Ttl,
    /// Index into [`DATASETS`].
    Dataset,
    /// Edges touched per batch, in per-mille of |E|.
    DeltaFraction,
    /// Index into [`SETTINGS`].
    Setting,
}

const DATASETS: [Dataset; 3] = [Dataset::DBpedia, Dataset::Yago2, Dataset::Pokec];

/// The ablation settings — (name, rule-level dependency ordering of the
/// units, component pruning): the two `ReasonConfig` choices DESIGN.md §5
/// calls out beyond the paper's `np` / `nb` variants.
const SETTINGS: [(&str, bool, bool); 4] = [
    ("both on", true, true),
    ("no dep-order", false, true),
    ("no pruning", true, false),
    ("both off", false, false),
];

impl Axis {
    fn name(self) -> &'static str {
        match self {
            Axis::Workers => "workers",
            Axis::Sigma => "sigma",
            Axis::K => "k",
            Axis::L => "l",
            Axis::Ttl => "ttl_us",
            Axis::Dataset => "dataset",
            Axis::DeltaFraction => "delta_permille",
            Axis::Setting => "setting",
        }
    }

    fn shapes_workload(self) -> bool {
        use Axis::*;
        matches!(self, Sigma | K | L | Dataset | DeltaFraction)
    }

    fn values(self, s: &Scale) -> Vec<u64> {
        match self {
            Axis::Workers => s.workers.clone(),
            Axis::Sigma => s.exp2_sigmas.clone(),
            Axis::K => vec![2, 4, 6, 8, 10],
            Axis::L => vec![1, 2, 3, 4, 5],
            Axis::Ttl => s.ttls.iter().map(|t| t.as_micros() as u64).collect(),
            Axis::Dataset => vec![0, 1, 2],
            Axis::DeltaFraction => vec![1, 10, 100],
            Axis::Setting => vec![0, 1, 2, 3],
        }
    }

    /// The axis value as a row's `x`: a name where it indexes one.
    fn json(self, x: u64) -> Json {
        match self {
            Axis::Dataset => Json::Str(DATASETS[x as usize].name().to_string()),
            Axis::Setting => Json::Str(SETTINGS[x as usize].0.to_string()),
            _ => Json::Int(x as i64),
        }
    }

    /// Run parameters of one cell: §VII's defaults (p = 4, the scale's TTL,
    /// both optimisations on) with the swept value written over its field.
    /// Detection, GED and chase variants read the worker count and the TTL.
    fn point(self, x: u64, scale: &Scale) -> ReasonConfig {
        let mut cfg = ReasonConfig::with_workers(4).with_ttl(scale.default_ttl);
        match self {
            Axis::Workers => cfg.workers = x as usize,
            Axis::Ttl => cfg.ttl = Some(Duration::from_micros(x)),
            Axis::Setting => {
                (_, cfg.use_dependency_order, cfg.prune_components) = SETTINGS[x as usize]
            }
            _ => {}
        }
        cfg
    }
}

/// The input of one cell. A builder fills the fields its variants read
/// and leaves the rest empty.
#[derive(Default)]
struct Workload {
    name: String,
    /// A satisfiable Σ (Sat, Imp, detection and the chase read it).
    sigma: DepSet,
    /// A Σ with a conflict chain appended: unsatisfiable.
    unsat: DepSet,
    probes: Vec<ImpProbe>,
    graph: Graph,
    stream: Vec<DeltaBatch>,
    ged: GedSet,
    /// What must not depend on p, the TTL or the algorithm (violation
    /// count and fingerprint; chase rounds and generated nodes; live
    /// violations after each batch): the first sample pins it, every
    /// later one on this workload must reproduce it.
    invariant: OnceCell<Vec<u64>>,
}

impl Workload {
    fn pin(&self, got: Vec<u64>, what: &str) {
        let first = self.invariant.get_or_init(|| got.clone());
        assert_eq!(&got, first, "{}: {what} must be invariant", self.name);
    }
}

/// A generated rule workload cut to the scale's number of probes, with —
/// given a `chain` depth — the `dataset`-like mined set of the same size
/// expanded with a conflict chain as its unsatisfiable twin (the paper
/// adds up to ten random GFDs so that Sat has a conflict to find).
fn rules(s: &Scale, w: gfd_gen::Workload, dataset: Dataset, chain: Option<usize>) -> Workload {
    let unsat = chain.map(|_| real_life_workload(dataset, w.sigma.len(), 42, chain).sigma);
    Workload {
        name: w.name,
        sigma: w.sigma,
        unsat: unsat.unwrap_or_default(),
        probes: w.probes.into_iter().take(s.imp_probes).collect(),
        ..Default::default()
    }
}

fn mined(s: &Scale, dataset: Dataset, size: usize, chain: Option<usize>) -> Workload {
    let clean = real_life_workload(dataset, size, 42, None);
    rules(s, clean, dataset, chain)
}

fn exp1(s: &Scale, _: u64) -> Vec<Workload> {
    let build = |d| mined(s, d, s.mined_sigma, None);
    vec![build(Dataset::DBpedia), build(Dataset::Yago2)]
}

/// Exp-2 and Exp-3: synthetic rules of the given shape (Exp-2's
/// unsatisfiable columns take the DBpedia-like chain set).
fn synthetic(s: &Scale, size: usize, k: usize, l: usize, chain: Option<usize>) -> Vec<Workload> {
    let clean = synthetic_workload(size, k, l, 42);
    vec![rules(s, clean, Dataset::DBpedia, chain)]
}

/// Exp-4: mined-style rules plus three "straggler" wildcard chains whose
/// pivot units explode on hub nodes of the canonical graph — the uneven
/// match counts are what makes splitting matter.
fn exp4(s: &Scale, _: u64) -> Vec<Workload> {
    let mut w = mined(s, Dataset::DBpedia, s.mined_sigma / 2, None);
    let attr = AttrId::new(0);
    for i in 0..3 {
        let mut p = Pattern::new();
        let vars: Vec<VarId> = (0..4 + i % 2)
            .map(|j| p.add_node(LabelId::WILDCARD, format!("w{j}")))
            .collect();
        for pair in vars.windows(2) {
            p.add_edge(pair[0], LabelId::WILDCARD, pair[1]);
        }
        let (first, last) = (vars[0], vars[vars.len() - 1]);
        let when = vec![Literal::eq_const(first, attr, 1i64)];
        let then = vec![Literal::eq_attr(first, attr, last, attr)];
        w.sigma
            .push(Dependency::new(format!("straggler{i}"), p, when, then));
    }
    vec![w]
}

/// A random graph over the DBpedia-like schema with ten planted
/// violations of a 40-rule mined-style set, and `batches` seeded delta
/// batches each touching `permille` of its edges (Exp-5, Exp-6).
fn planted(s: &Scale, batches: usize, permille: u64) -> Workload {
    let w = real_life_workload(Dataset::DBpedia, 40, 7, None);
    let nodes = if s.name == "full" { 60_000 } else { 6_000 };
    let cfg = gfd_gen::GraphGenConfig {
        nodes,
        edges: nodes * 3,
        attr_prob: 0.3,
        seed: 7,
    };
    let mut graph = gfd_gen::random_graph(&w.schema, &cfg);
    for (i, (_, rule)) in w.sigma.iter().take(10).enumerate() {
        gfd_gen::plant_violation(&mut graph, rule, &w.schema, 100 + i as u64);
    }
    let cfg = gfd_gen::DeltaStreamConfig {
        batches,
        edge_fraction: permille as f64 / 1000.0,
        seed: 1000 + permille * 10,
        ..Default::default()
    };
    Workload {
        name: format!("planted(|V|={})", graph.node_count()),
        stream: gfd_gen::delta_stream(&graph, &w.schema, &cfg),
        sigma: w.sigma,
        graph,
        ..Default::default()
    }
}

/// Exp-5's two datasets: the planted graph, and a power-law hub graph
/// with string-heavy diamond and chain rules (`hub_gen`, DESIGN.md §15)
/// whose hub pivots own most of the matches.
fn exp5(s: &Scale, _: u64) -> Vec<Workload> {
    let (nodes, hub_degree) = match s.name {
        "full" => (8_000, 128),
        _ => (2_000, 96),
    };
    let hub = gfd_gen::hub_workload(&HubGenConfig {
        nodes,
        hub_degree,
        ..HubGenConfig::default()
    });
    let hub = Workload {
        name: hub.name,
        sigma: hub.sigma,
        graph: hub.graph,
        ..Default::default()
    };
    vec![planted(s, 0, 0), hub]
}

/// Exp-7: `depth` disjunctive rules `∅ → (x.Aᵢ = vᵢ ∨ x.Aᵢ = vᵢ + 1)`, each
/// on its own concretely-labelled node, plus denials killing both values
/// of the last attribute: unsatisfiable, and the whole 2^(depth+1)-branch
/// choice tree has to be explored to show it.
fn exp7(s: &Scale, _: u64) -> Vec<Workload> {
    let depth = if s.name == "full" { 15 } else { 11 };
    let mut vocab = Vocab::new();
    let x = VarId::new(0);
    let node = |label: LabelId| {
        let mut p = Pattern::new();
        p.add_node(label, "x");
        p
    };
    let mut rules = Vec::new();
    for i in 0..depth {
        let (label, attr) = (vocab.label(&format!("t{i}")), vocab.attr(&format!("A{i}")));
        let is = |val: i64| vec![GedLiteral::eq_const(x, attr, val)];
        let (v, either) = (37 * i as i64, |v| vec![is(v), is(v + 1)]);
        rules.push(Ged::new(format!("d{i}"), node(label), vec![], either(v)));
        if i + 1 == depth {
            rules.push(Ged::denial("kill0", node(label), is(v)));
            rules.push(Ged::denial("kill1", node(label), is(v + 1)));
        }
    }
    vec![Workload {
        name: format!("choice-tree(depth={depth})"),
        ged: GedSet::from_vec(rules),
        ..Default::default()
    }]
}

/// Exp-8: a seeded generation-heavy tiered GFD+GGD set (`ggd_gen`),
/// satisfiable, chased to its fixpoint.
fn exp8(s: &Scale, _: u64) -> Vec<Workload> {
    let full = s.name == "full";
    let cfg = gfd_gen::GgdGenConfig {
        chain_depth: if full { 6 } else { 5 },
        gen_per_tier: if full { 4 } else { 3 },
        fanout: 3,
        literal_rules: if full { 10 } else { 8 },
        seed: 7,
    };
    vec![Workload {
        name: format!("tiered-ggd(depth={})", cfg.chain_depth),
        sigma: gfd_gen::mixed_ggd_workload(&cfg, &mut Vocab::new()),
        ..Default::default()
    }]
}

// ---- the variants: one measured run each, asserting what it claims -------

/// How a variant sits in its experiment's printed table.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// A column, with its wall-time ratio to the nearest baseline on its left.
    Swept,
    /// A column others are compared to.
    Base,
}
use Role::{Base, Swept};

struct Variant(&'static str, Role, fn(&Workload, &ReasonConfig) -> Sample);

/// Median wall time of three runs of `run` (after one warm-up); metrics
/// and counters are the last run's.
fn sample(mut run: impl FnMut() -> (Option<RunMetrics>, Vec<(&'static str, u64)>)) -> Sample {
    let mut last = None;
    let wall = time_median(3, || last = Some(run()));
    let (metrics, counters) = last.expect("time_median runs the closure");
    Sample {
        wall,
        metrics,
        counters,
    }
}

/// `SeqSat` / `SeqImp` are the same driver at one worker, nothing to split.
fn seq(cfg: &ReasonConfig) -> ReasonConfig {
    ReasonConfig {
        workers: 1,
        ..cfg.clone().without_split()
    }
}

fn sat(sigma: &DepSet, expect: bool, cfg: ReasonConfig) -> Sample {
    sample(|| {
        let r = sat_with_config(sigma, &cfg);
        assert_eq!(r.is_satisfiable(), expect, "Sat verdict");
        (Some(r.stats), vec![])
    })
}

const SEQ_SAT: Variant = Variant("SeqSat", Base, |w, cfg| sat(&w.sigma, true, seq(cfg)));
const PAR_SAT: Variant = Variant("ParSat", Swept, |w, cfg| sat(&w.sigma, true, cfg.clone()));
const PAR_SAT_NP: Variant = Variant("ParSat-np", Swept, |w, cfg| {
    sat(&w.sigma, true, cfg.clone().without_pipeline())
});
const PAR_SAT_NB: Variant = Variant("ParSat-nb", Swept, |w, cfg| {
    sat(&w.sigma, true, cfg.clone().without_split())
});
const SEQ_UNSAT: Variant = Variant("SeqSat(unsat)", Base, |w, cfg| {
    sat(&w.unsat, false, seq(cfg))
});
const PAR_UNSAT: Variant = Variant("ParSat(unsat)", Swept, |w, cfg| {
    sat(&w.unsat, false, cfg.clone())
});

/// All probes of the workload, each checked against its expected answer.
fn imp(w: &Workload, check: impl Fn(&Dependency) -> (bool, RunMetrics)) -> Sample {
    sample(|| {
        let mut all = RunMetrics::default();
        for p in &w.probes {
            let (implied, metrics) = check(&p.phi);
            assert_eq!(implied, p.expect_implied, "Imp verdict on {}", p.phi.name);
            all.merge(&metrics);
        }
        (Some(all), vec![])
    })
}

fn imp_with(w: &Workload, cfg: ReasonConfig) -> Sample {
    imp(w, |phi| {
        let r = imp_with_config(&w.sigma, phi, &cfg);
        (r.is_implied(), r.stats)
    })
}

const SEQ_IMP: Variant = Variant("SeqImp", Base, |w, cfg| imp_with(w, seq(cfg)));
const PAR_IMP: Variant = Variant("ParImp", Swept, |w, cfg| imp_with(w, cfg.clone()));
const PAR_IMP_NP: Variant = Variant("ParImp-np", Swept, |w, cfg| {
    imp_with(w, cfg.clone().without_pipeline())
});
const PAR_IMP_NB: Variant = Variant("ParImp-nb", Swept, |w, cfg| {
    imp_with(w, cfg.clone().without_split())
});
/// The chase baseline the paper calls ParImpRDF, run sequentially.
const PAR_IMP_RDF: Variant = Variant("ParImpRDF", Swept, |w, _| {
    imp(w, |phi| {
        let r = chase_imp(&w.sigma, phi);
        (r.is_implied(), r.metrics)
    })
});

/// An order-insensitive digest of a violation set — the wrapping sum of
/// one hash per (rule, match, failed literals) record — so that worker
/// scheduling cannot perturb it.
fn fingerprint(violations: &[ViolationRecord]) -> u64 {
    let digest = |v: &ViolationRecord| {
        let mut h = DefaultHasher::new();
        (v.gfd, &v.m, &v.failed).hash(&mut h);
        h.finish()
    };
    violations.iter().map(digest).fold(0, u64::wrapping_add)
}

const DETECT: Variant = Variant("detect", Swept, |w, cfg| {
    let cfg = DetectConfig {
        ttl: cfg.ttl.expect("a cell's TTL"),
        ..DetectConfig::with_workers(cfg.workers)
    };
    sample(|| {
        let r = detect(&w.graph, &w.sigma, &cfg);
        let found = r.violations.len() as u64;
        w.pin(vec![found, fingerprint(&r.violations)], "the violation set");
        (Some(r.metrics), vec![("violations", found)])
    })
});

const DETECT_SEQ: Variant = Variant("detect(p=1)", Base, |w, cfg| {
    (DETECT.2)(w, &ReasonConfig::with_workers(1).with_ttl(cfg.ttl.unwrap()))
});

/// Mean per-batch wall time of `apply` over the workload's stream. Set-up
/// before the first batch (the incremental session's seeding detect) is
/// outside the timed region, hence `time_once` per batch.
fn per_batch(w: &Workload, mut apply: impl FnMut(&DeltaBatch) -> (usize, usize)) -> Sample {
    let (mut wall, mut live, mut rerun) = (Duration::ZERO, Vec::new(), 0);
    for batch in &w.stream {
        let (t, (violations, pivots)) = time_once(|| apply(batch));
        wall += t;
        live.push(violations as u64);
        rerun += pivots;
    }
    let n = w.stream.len();
    let ops = w.stream.iter().map(DeltaBatch::len).sum::<usize>();
    let counters = vec![
        ("ops_per_batch", (ops / n) as u64),
        ("rerun_pivots_per_batch", (rerun / n) as u64),
        ("violations", live[n - 1]),
    ];
    w.pin(live, "live violations after each batch");
    Sample {
        wall: wall / n as u32,
        metrics: None,
        counters,
    }
}

/// `gfd-incr`: delta-CSR overlay, dirty-frontier units, cache merge.
const INCREMENTAL: Variant = Variant("incremental", Swept, |w, cfg| {
    let cfg = IncrConfig::with_workers(cfg.workers);
    let mut session = IncrementalDetector::new(w.graph.clone(), w.sigma.clone(), cfg);
    per_batch(w, |batch| {
        let report = session.apply(batch);
        (report.violations_total, report.rerun_pivots)
    })
});

/// The static pipeline: mutate the graph, re-freeze, detect from scratch.
const FULL_REDETECT: Variant = Variant("full re-detect", Base, |w, cfg| {
    let mut graph = w.graph.clone();
    let cfg = DetectConfig::with_workers(cfg.workers);
    per_batch(w, |batch| {
        batch.apply_to_graph(&mut graph);
        (detect(&graph, &w.sigma, &cfg).violations.len(), 0)
    })
});

/// Exp-7 and Exp-8 split on a 200 µs threshold: their units (one open
/// branch, one batch of cached matches) finish far below §VII's TTL.
const FINE_TTL: Duration = Duration::from_micros(200);

const GED_SAT: Variant = Variant("GED-Sat", Swept, |w, cfg| {
    let cfg = GedReasonConfig::with_workers(cfg.workers).with_ttl(FINE_TTL);
    sample(|| {
        let run = ged_sat_with_config(&w.ged, &cfg);
        let unsat = matches!(run.outcome, GedSatOutcome::Unsatisfiable);
        assert!(unsat, "the choice tree must be UNSAT: {:?}", run.outcome);
        let branches = run.metrics.branches;
        w.pin(vec![branches], "branches explored");
        (Some(run.metrics), vec![("branches", branches)])
    })
});

const GGD_CHASE: Variant = Variant("GGD-chase", Swept, |w, cfg| {
    let cfg = ChaseConfig {
        workers: cfg.workers,
        ttl: FINE_TTL,
        batch: 8,
        max_generated_nodes: 10_000_000,
        ..ChaseConfig::default()
    };
    sample(|| {
        let r = dep_sat_with_config(&w.sigma, &cfg);
        assert!(r.is_satisfiable(), "the chase must reach a fixpoint");
        let s = &r.stats;
        w.pin(vec![s.rounds, s.generated_nodes], "rounds, generated nodes");
        let counters = vec![
            ("scan_us", s.scan_time.as_micros() as u64),
            ("apply_us", s.apply_time.as_micros() as u64),
            ("rounds", s.rounds),
            ("generated_nodes", s.generated_nodes),
            ("premise_evals", s.premise_evals),
        ];
        (Some(r.metrics), counters)
    })
});

// ---- the table ----------------------------------------------------------

struct Experiment {
    id: &'static str,
    figure: &'static str,
    /// The shape the paper reports (beyond the paper: the shape we expect).
    paper_shape: &'static str,
    axis: Axis,
    build: fn(&Scale, u64) -> Vec<Workload>,
    variants: &'static [Variant],
}

const TABLE: &[Experiment] = &[
    Experiment {
        id: "fig5",
        figure: "Fig. 5",
        paper_shape: "SeqSat 1728/1341/2475s, SeqImp 728/644/1355s, ParImpRDF 1026/987/1907s",
        axis: Axis::Dataset,
        build: |s, x| vec![mined(s, DATASETS[x as usize], s.mined_sigma, Some(4))],
        variants: &[SEQ_UNSAT, SEQ_IMP, PAR_IMP_RDF],
    },
    Experiment {
        id: "exp1",
        figure: "Fig. 6(a-d)",
        paper_shape: "ParSat 3.4x, ParImp 3.6x faster from p=4 to 20; they beat nb ~4x, np ~1.6x",
        axis: Axis::Workers,
        build: exp1,
        variants: SAT_AND_IMP,
    },
    Experiment {
        id: "exp2",
        figure: "Fig. 6(e,f)",
        paper_shape: "p=4: grows with |Σ| (unsat: flat); Par ~3.1x faster than Seq, 4.8x than RDF",
        axis: Axis::Sigma,
        build: |s, sigma| synthetic(s, sigma as usize, 6, 5, Some(4)),
        variants: &[
            SEQ_SAT,
            PAR_SAT,
            PAR_SAT_NP,
            PAR_SAT_NB,
            SEQ_UNSAT,
            PAR_UNSAT,
            SEQ_IMP,
            PAR_IMP,
            PAR_IMP_NP,
            PAR_IMP_NB,
            PAR_IMP_RDF,
        ],
    },
    Experiment {
        id: "exp3_k",
        figure: "Fig. 6(g,i)",
        paper_shape: "l=3, p=4: all slow down as k grows; splitting pays most at large k",
        axis: Axis::K,
        build: |s, k| synthetic(s, s.exp3_sigma, k as usize, 3, None),
        variants: SAT_AND_IMP,
    },
    Experiment {
        id: "exp3_l",
        figure: "Fig. 6(h,j)",
        paper_shape: "k=5, p=4: mild sensitivity to l; ParSat / ParImp fastest at every l",
        axis: Axis::L,
        build: |s, l| synthetic(s, s.exp3_sigma, 5, l as usize, None),
        variants: SAT_AND_IMP,
    },
    Experiment {
        id: "exp4_ttl",
        figure: "Fig. 6(k,l)",
        paper_shape: "p=4: a U-curve — tiny TTLs over-split, large ones leave stragglers whole",
        axis: Axis::Ttl,
        build: exp4,
        variants: &[PAR_SAT, PAR_SAT_NP, PAR_IMP, PAR_IMP_NP],
    },
    Experiment {
        id: "exp5_detect",
        figure: "beyond paper (§I application)",
        paper_shape: "scales like Fig. 6(a) while cores last; the violation set is p-invariant",
        axis: Axis::Workers,
        build: exp5,
        variants: &[DETECT_SEQ, DETECT],
    },
    Experiment {
        id: "exp5_hub_ttl",
        figure: "beyond paper (§I application)",
        paper_shape: "p=4: a large TTL leaves a hub's unit to one worker, a small one spreads it",
        axis: Axis::Ttl,
        build: exp5,
        variants: &[DETECT],
    },
    Experiment {
        id: "exp6_incremental",
        figure: "beyond paper (streaming)",
        paper_shape: "p=4, per batch: the overlay beats re-freeze + re-detect, least at 10% deltas",
        axis: Axis::DeltaFraction,
        build: |s, permille| vec![planted(s, 3, permille)],
        variants: &[FULL_REDETECT, INCREMENTAL],
    },
    Experiment {
        id: "exp7_ged",
        figure: "beyond paper (§IX GEDs)",
        paper_shape: "wall shrinks while the choice tree has open branches to steal",
        axis: Axis::Workers,
        build: exp7,
        variants: &[GED_SAT],
    },
    Experiment {
        id: "exp8_ggd_chase",
        figure: "beyond paper (GGDs)",
        paper_shape: "the scan (realization checks included) shrinks with p; the commit walk is the serial floor",
        axis: Axis::Workers,
        build: exp8,
        variants: &[GGD_CHASE],
    },
    Experiment {
        id: "ablations",
        figure: "DESIGN.md §5 (paper §V-B)",
        paper_shape: "ordering pays on the unsat set, pruning wherever GΣ has disjoint patterns",
        axis: Axis::Setting,
        // Ordering matters most when there is a conflict to find early, so
        // the settings are measured on both halves of a mined set.
        build: |s, _| vec![mined(s, Dataset::DBpedia, s.mined_sigma / 2, Some(3))],
        variants: &[SEQ_SAT, PAR_SAT, SEQ_UNSAT, PAR_UNSAT, SEQ_IMP],
    },
];

/// Sat and Imp side by side, each with its own sequential baseline.
const SAT_AND_IMP: &[Variant] = &[
    SEQ_SAT, PAR_SAT, PAR_SAT_NP, PAR_SAT_NB, SEQ_IMP, PAR_IMP, PAR_IMP_NP, PAR_IMP_NB,
];

// ---- the printer and the loop -------------------------------------------

/// One text table per workload series: a line per axis value, a wall-time
/// column per variant, a swept one with its ratio to the baseline on its
/// left — from wall time only. (Counters are in the JSON.)
fn print(exp: &Experiment, rows: &[Row]) {
    let label = |r: &Row| match &r.x {
        Json::Int(n) => n.to_string(),
        x => x.as_str().unwrap_or_default().to_string(),
    };
    let mut headers = vec![exp.axis.name()];
    headers.extend(exp.variants.iter().map(|v| v.0));
    // Rows arrive grouped by axis value, then series, then variant.
    let width = exp.variants.len();
    let per_x = rows.iter().filter(|r| r.x == rows[0].x).count();
    for first in (0..per_x).step_by(width) {
        let mut table = Table::new(&headers);
        for line in rows[first..].chunks(width).step_by(per_x / width) {
            let (mut cells, mut baseline) = (vec![label(&line[0])], None);
            for (Variant(_, role, _), row) in exp.variants.iter().zip(line) {
                let wall = row.sample.wall;
                cells.push(match (role, baseline) {
                    (Swept, Some(b)) => {
                        let ratio = Duration::as_secs_f64(&b) / wall.as_secs_f64();
                        format!("{} ({ratio:.2}x)", fmt_duration(wall))
                    }
                    _ => fmt_duration(wall),
                });
                if *role == Base {
                    baseline = Some(wall);
                }
            }
            table.row(cells);
        }
        if !exp.axis.shapes_workload() {
            println!("\n[{}]", rows[first].dataset);
        }
        table.print();
    }
}

fn main() {
    let scale = scale();
    banner(&scale);
    // `cargo bench` passes `--bench`; the first bare argument selects
    // experiments by id substring.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let selected = |e: &&Experiment| filter.as_ref().is_none_or(|f| e.id.contains(f.as_str()));
    let mut reports = Vec::new();
    for exp in TABLE.iter().filter(selected) {
        println!("\n==== {} — {}", exp.id, exp.figure);
        println!("paper's shape: {}", exp.paper_shape);
        let (mut rows, mut built) = (Vec::new(), Vec::new());
        for (i, x) in exp.axis.values(&scale).into_iter().enumerate() {
            if i == 0 || exp.axis.shapes_workload() {
                built = (exp.build)(&scale, x);
            }
            let cfg = exp.axis.point(x, &scale);
            for w in &built {
                rows.extend(exp.variants.iter().map(|Variant(name, _, run)| Row {
                    dataset: w.name.clone(),
                    x: exp.axis.json(x),
                    variant: name,
                    sample: run(w, &cfg),
                }));
            }
        }
        print(exp, &rows);
        reports.push(Report {
            id: exp.id,
            figure: exp.figure,
            paper_shape: exp.paper_shape,
            axis: exp.axis.name(),
            rows,
        });
    }
    let text = report_json(scale.name, &reports).pretty() + "\n";
    let rows = check_report(&text).expect("the report must pass its own check");
    println!("\n{} experiment(s), {rows} row(s)", reports.len());
    if filter.is_some() {
        return println!("filtered run: BENCH_paper.json not written");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    std::fs::write(path, text).expect("write BENCH_paper.json");
    println!("wrote {path}");
}
