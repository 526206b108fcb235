//! `sat_dbpedia` and `imp_dbpedia`: the paper's two reasoning problems
//! over one mined-style Σ, both on the unified driver in `gfd-core`.

use super::{match_probe, record_runtime};
use crate::harness::{ms_since, sized, LibTrace, Recorder, Staged, Workload};
use gfd_core::{
    build_plans_lazy, consequence_deducible, extract_model, generate_units, graph_satisfies_all,
    imp_with_config, order_units, run_reason, sat_with_config, CanonicalGraph, EqRel, Gfd, GfdSet,
    Goal, Interrupt, ReasonConfig, ReasonRun, TerminalEvent,
};
use gfd_gen::{real_life_workload, Dataset, ImpProbe};
use gfd_graph::{Graph, LabelIndex};
use gfd_runtime::TraceSpec;
use gfdbench::SpanId;
use std::collections::HashSet;
use std::time::Instant;

/// |Σ| of the DBpedia-like rule set (paper Exp-1 scale; ÷ 20 in smoke).
const SIGMA: usize = 4000;

/// Library defaults except the worker count.
fn config(workers: usize) -> ReasonConfig {
    ReasonConfig::with_workers(workers)
}

fn traced_config(workers: usize) -> ReasonConfig {
    config(workers).with_trace(TraceSpec::enabled())
}

/// The set-up passes `run_reason` makes before it dispatches a unit,
/// called one by one with a span each, followed by `run_reason` itself
/// (which repeats them — the caller subtracts `repeated_ms`).
struct ReasonStages {
    run: ReasonRun,
    /// Building `GΣ` / `G^X_Q`; the caller times it before these stages
    /// and fills it in.
    canonical_ms: f64,
    plans_ms: f64,
    units_ms: f64,
    order_ms: f64,
    reason_ms: f64,
    /// `extract_model`; the caller times it after these stages (Sat only)
    /// and fills it in.
    model_ms: f64,
}

impl ReasonStages {
    fn repeated_ms(&self) -> f64 {
        self.plans_ms + self.units_ms + self.order_ms
    }
}

fn reason_stages(
    rec: &mut Recorder,
    root: SpanId,
    sigma: &GfdSet,
    goal: Goal<'_>,
    eq0: EqRel,
    canon: &CanonicalGraph,
    cfg: &ReasonConfig,
) -> ReasonStages {
    let ((pivots, _plans), plans_ms) = rec.spans.time("core.build_plans_lazy", root, || {
        build_plans_lazy(sigma, &canon.index)
    });
    let (mut units, units_ms) = rec.spans.time("core.generate_units", root, || {
        generate_units(sigma, canon, &pivots, cfg.prune_components)
    });
    // Implication front-loads the rules whose premise attributes all
    // occur in X (§VI-C), exactly as the driver does.
    let boosted: Option<Vec<bool>> = match goal {
        Goal::Imp(phi) => {
            let x_attrs: HashSet<_> = phi.premise.iter().flat_map(|l| l.attrs()).collect();
            Some(
                sigma
                    .iter()
                    .map(|(_, g)| g.premise_attrs().all(|a| x_attrs.contains(&a)))
                    .collect(),
            )
        }
        _ => None,
    };
    let ((), order_ms) = rec.spans.time("core.order_units", root, || {
        order_units(&mut units, sigma, canon, &pivots, boosted.as_deref())
    });
    drop(units);
    let (run, reason_ms) = rec.spans.time("core.run_reason", root, || {
        run_reason(sigma, goal, eq0, canon, cfg)
    });
    ReasonStages {
        run,
        canonical_ms: 0.0,
        plans_ms,
        units_ms,
        order_ms,
        reason_ms,
        model_ms: 0.0,
    }
}

/// Did the scheduler reach quiescence (no deadline, unit cap or abort)?
/// Only then does "no terminal event" mean a definite verdict.
fn finished(run: &ReasonRun) -> bool {
    Interrupt::from_outcome(&run.sched_outcome).is_none()
}

/// Book the `gfd-core` and `gfd-runtime` rows of one staged operation.
/// `wall_ms` is the staged wall net of repeated stages; `counts_repeat`
/// says whether every staged op sees the same input.
fn record_core(
    rec: &mut Recorder,
    workers: usize,
    s: &ReasonStages,
    wall_ms: f64,
    busy_p1: &mut f64,
    counts_repeat: bool,
) {
    let m = &s.run.metrics;
    record_runtime(rec, workers, m, busy_p1);
    if workers > 1 {
        rec.sample("core.delta_ops_broadcast", m.delta_ops_broadcast as f64);
        return;
    }
    // Stage times and counts come from the one-worker side: the stages
    // are serial at any p, and only at p = 1 do the counts repeat.
    rec.sample("core.canonical_ms", s.canonical_ms);
    rec.sample("core.plans_ms", s.plans_ms);
    rec.sample("core.units_ms", s.units_ms);
    rec.sample("core.order_ms", s.order_ms);
    // Net of the passes timed above; on a pattern-sized `G^X_Q` what is
    // left is within clock noise of zero, so floor it there.
    rec.sample("core.reason_ms", (s.reason_ms - s.repeated_ms()).max(0.0));
    rec.sample("core.model_ms", s.model_ms);
    rec.sample(
        "core.serial_share",
        ((s.canonical_ms + s.repeated_ms() + s.model_ms) / wall_ms).min(1.0),
    );
    if !counts_repeat {
        return;
    }
    rec.exact("core.units_generated", m.units_generated as f64);
    rec.exact("core.matches", m.matches as f64);
    rec.exact("core.pending", m.pending as f64);
    rec.exact("core.rechecks", m.rechecks as f64);
}

/// The canonical-graph rows and the matcher probe over it.
fn canonical_probes<'p>(
    rec: &mut Recorder,
    canon: &CanonicalGraph,
    patterns: impl IntoIterator<Item = &'p gfd_graph::Pattern>,
) {
    rec.exact("graph.nodes", canon.graph.node_count() as f64);
    rec.exact("graph.edges", canon.graph.edge_count() as f64);
    let t = Instant::now();
    std::hint::black_box(LabelIndex::build(&canon.graph));
    rec.sample("graph.freeze_ms", ms_since(t));
    match_probe(rec, &canon.graph, &canon.index, patterns).book(rec);
}

/// `par_sat(Σ)` → verdict + model.
pub struct SatDbpedia {
    sigma: GfdSet,
    gen_ms: f64,
    n: usize,
    busy_p1: f64,
    /// The latest model, kept for the end-of-run `G |= Σ` oracle.
    model: Option<Box<Graph>>,
}

impl Workload for SatDbpedia {
    const NAME: &'static str = "sat_dbpedia";
    /// The model when the verdict was *satisfiable*.
    type Out = Option<Box<Graph>>;

    fn setup(seed: u64, smoke: bool, n: usize) -> Self {
        let t = Instant::now();
        let w = real_life_workload(Dataset::DBpedia, sized(SIGMA, smoke), seed, None);
        SatDbpedia {
            sigma: w.sigma,
            gen_ms: ms_since(t),
            n,
            busy_p1: 0.0,
            model: None,
        }
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }

    fn op(&mut self, workers: usize) -> Self::Out {
        match sat_with_config(&self.sigma, &config(workers)).outcome {
            gfd_core::SatOutcome::Satisfiable(model) => Some(model),
            _ => None,
        }
    }

    fn check(&mut self, _workers: usize, out: Self::Out) -> bool {
        // The generator builds Σ satisfiable; anything else (a conflict,
        // an `Unknown`) is a wrong answer.
        let ok = out.is_some();
        self.model = out.or(self.model.take());
        ok
    }

    fn finish(&mut self) -> bool {
        self.model
            .as_ref()
            .is_some_and(|m| graph_satisfies_all(m, &self.sigma))
    }

    fn staged(&mut self, workers: usize, rec: &mut Recorder) -> (Self::Out, Staged) {
        let cfg = config(workers);
        let root = rec.begin_op("sat_dbpedia.op");
        let ((canon, _), canonical_ms) = rec.spans.time("core.for_sigma", root, || {
            CanonicalGraph::for_sigma(&self.sigma)
        });
        let mut s = reason_stages(
            rec,
            root,
            &self.sigma,
            Goal::Sat,
            EqRel::new(),
            &canon,
            &cfg,
        );
        s.canonical_ms = canonical_ms;
        let (model, model_ms) = rec.spans.time("core.extract_model", root, || {
            let engine = s.run.engine.as_mut()?;
            Some(Box::new(extract_model(&canon.graph, &mut engine.eq)))
        });
        s.model_ms = model_ms;
        let wall_ms = rec.end_op(root);
        let repeated_ms = s.repeated_ms();
        record_core(
            rec,
            workers,
            &s,
            wall_ms - repeated_ms,
            &mut self.busy_p1,
            true,
        );
        let satisfiable = s.run.terminal.is_none() && finished(&s.run);
        (
            model.filter(|_| satisfiable),
            Staged {
                wall_ms,
                repeated_ms,
            },
        )
    }

    fn library_traced(&mut self) -> LibTrace {
        let t = Instant::now();
        let r = sat_with_config(&self.sigma, &traced_config(self.n));
        LibTrace {
            wall_ms: ms_since(t),
            events: r.stats.trace.events.len() as u64,
            dropped: r.stats.trace.dropped,
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        let (canon, _) = CanonicalGraph::for_sigma(&self.sigma);
        canonical_probes(rec, &canon, self.sigma.iter().map(|(_, g)| &g.pattern));
    }
}

/// `par_imp(Σ, ϕᵢ)`, cycling the generated probes (implied and not).
pub struct ImpDbpedia {
    sigma: GfdSet,
    probes: Vec<ImpProbe>,
    gen_ms: f64,
    n: usize,
    busy_p1: f64,
    /// Next probe per side (`[workers = 1, workers = n]`): both sides
    /// walk the same probe sequence.
    cursor: [usize; 2],
    /// The probes differ in size, so exact counts and the graph rows are
    /// all read on one probe: the first the one-worker side stages.
    counted_probe: Option<usize>,
}

impl ImpDbpedia {
    fn next_probe(&mut self, workers: usize) -> usize {
        let side = usize::from(workers > 1);
        let i = self.cursor[side] % self.probes.len();
        self.cursor[side] += 1;
        i
    }
}

impl Workload for ImpDbpedia {
    const NAME: &'static str = "imp_dbpedia";
    /// `(probe index, implied?)`; `None` for an `Unknown` verdict.
    type Out = (usize, Option<bool>);

    fn setup(seed: u64, smoke: bool, n: usize) -> Self {
        let t = Instant::now();
        let w = real_life_workload(Dataset::DBpedia, sized(SIGMA, smoke), seed, None);
        assert!(!w.probes.is_empty(), "generator produced no probes");
        ImpDbpedia {
            sigma: w.sigma,
            probes: w.probes,
            gen_ms: ms_since(t),
            n,
            busy_p1: 0.0,
            cursor: [0; 2],
            counted_probe: None,
        }
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }

    fn op(&mut self, workers: usize) -> Self::Out {
        let i = self.next_probe(workers);
        let r = imp_with_config(&self.sigma, &self.probes[i].phi, &config(workers));
        (i, (!r.is_unknown()).then(|| r.is_implied()))
    }

    fn check(&mut self, _workers: usize, (i, implied): Self::Out) -> bool {
        implied == Some(self.probes[i].expect_implied)
    }

    fn finish(&mut self) -> bool {
        true
    }

    fn staged(&mut self, workers: usize, rec: &mut Recorder) -> (Self::Out, Staged) {
        let cfg = config(workers);
        let i = self.next_probe(workers);
        let phi: &Gfd = &self.probes[i].phi;
        let root = rec.begin_op("imp_dbpedia.op");
        let (prepared, canonical_ms) = rec.spans.time("core.for_phi", root, || {
            // The driver's shortcuts: an inconsistent X, or Y following
            // from X alone, decide the probe without any reasoning.
            let (canon, eqx) = CanonicalGraph::for_phi(phi).ok()?;
            (!consequence_deducible(&mut eqx.clone(), phi)).then_some((canon, eqx))
        });
        let Some((canon, eqx)) = prepared else {
            let wall_ms = rec.end_op(root);
            return (
                (i, Some(true)),
                Staged {
                    wall_ms,
                    repeated_ms: 0.0,
                },
            );
        };
        let mut s = reason_stages(rec, root, &self.sigma, Goal::Imp(phi), eqx, &canon, &cfg);
        s.canonical_ms = canonical_ms;
        let wall_ms = rec.end_op(root);
        let repeated_ms = s.repeated_ms();
        let counted = workers == 1 && *self.counted_probe.get_or_insert(i) == i;
        record_core(
            rec,
            workers,
            &s,
            wall_ms - repeated_ms,
            &mut self.busy_p1,
            counted,
        );
        let implied = match s.run.terminal {
            Some(TerminalEvent::Conflict(_) | TerminalEvent::Consequence) => Some(true),
            None => finished(&s.run).then_some(false),
        };
        (
            (i, implied),
            Staged {
                wall_ms,
                repeated_ms,
            },
        )
    }

    fn library_traced(&mut self) -> LibTrace {
        let i = self.cursor[1] % self.probes.len();
        let t = Instant::now();
        let r = imp_with_config(&self.sigma, &self.probes[i].phi, &traced_config(self.n));
        LibTrace {
            wall_ms: ms_since(t),
            events: r.stats.trace.events.len() as u64,
            dropped: r.stats.trace.dropped,
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        // G^X_Q of one probe: pattern-sized, which is the point — the
        // matcher has next to nothing to do on this workload.
        let Some(i) = self.counted_probe else { return };
        let phi = &self.probes[i].phi;
        if let Ok((canon, _)) = CanonicalGraph::for_phi(phi) {
            canonical_probes(rec, &canon, self.sigma.iter().map(|(_, g)| &g.pattern));
        }
    }
}
