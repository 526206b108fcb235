//! The model `sat_with_config` reads out does not depend on how the run
//! was scheduled: on the Exp-1 workload every worker count yields the
//! same population of `GΣ`, byte for byte, and that population satisfies
//! Σ.
//!
//! "The same" includes the fresh constants: the read-out numbers each
//! unbound class by its least key, which neither the unit order nor the
//! workers' interleaving moves.

use gfd::core::model::is_fresh_id;
use gfd::core::{
    imp_with_config, run_reason, sat_with_config, CanonicalGraph, DepSet, Dependency, EqRel, Goal,
    ImpOutcome, Literal, ReasonConfig, SatOutcome,
};
use gfd::gen::{real_life_workload, Dataset, Workload};
use gfd::graph::{AttrId, Graph, LabelId, NodeId, Pattern, ValueId, VarId};
use gfd::runtime::{EventKind, RunMetrics, TraceSpec};
use std::time::Duration;

type Attrs = Vec<(NodeId, AttrId, ValueId)>;

fn structure(g: &Graph) -> (Vec<LabelId>, Vec<(NodeId, LabelId, NodeId)>) {
    (g.nodes().map(|v| g.label(v)).collect(), g.edges().collect())
}

fn attrs(g: &Graph) -> Attrs {
    g.nodes()
        .flat_map(|v| g.attrs(v).map(move |(a, val)| (v, a, val)))
        .collect()
}

/// The model `sat_with_config` reads out under `cfg`, and the run's
/// counters.
fn model(sigma: &DepSet, cfg: &ReasonConfig) -> (Graph, RunMetrics) {
    let result = sat_with_config(sigma, cfg);
    match result.outcome {
        SatOutcome::Satisfiable(model) => (*model, result.stats),
        other => panic!("{} workers: {other:?}", cfg.workers),
    }
}

#[test]
fn the_model_is_the_same_at_every_worker_count() {
    for seed in [7u64, 42] {
        let w = real_life_workload(Dataset::DBpedia, 400, seed, None);
        let base = model(&w.sigma, &ReasonConfig::with_workers(1)).0;
        assert!(gfd::graph_satisfies_all(&base, &w.sigma), "seed {seed}");
        let base_attrs = attrs(&base);
        assert!(base_attrs.iter().any(|&(_, _, v)| is_fresh_id(v)));
        assert!(base_attrs.iter().any(|&(_, _, v)| !is_fresh_id(v)));
        for workers in [1usize, 2, 8] {
            let other = model(&w.sigma, &ReasonConfig::with_workers(workers)).0;
            assert_eq!(structure(&other), structure(&base), "seed {seed}");
            assert_eq!(
                attrs(&other),
                base_attrs,
                "seed {seed}: the model at {workers} workers differs from the one at 1"
            );
        }
    }
}

/// FNV-1a over a model's labels, edges and attribute triples: a digest
/// that moves with any byte of the population. A value is hashed as what
/// it resolves to, not as its `ValueId`, whose bits follow the order the
/// whole process interned values in.
fn digest(g: &Graph) -> u64 {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    let word = |h: u64, w: usize| (w as u64).to_le_bytes().into_iter().fold(h, fnv);
    let (labels, edges) = structure(g);
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = labels.iter().fold(h, |h, l| word(h, l.index()));
    for (s, l, d) in edges {
        h = [s.index(), l.index(), d.index()].into_iter().fold(h, word);
    }
    for (v, a, val) in attrs(g) {
        h = word(word(h, v.index()), a.index());
        h = format!("{val:?};").into_bytes().into_iter().fold(h, fnv);
    }
    h
}

/// At one worker every search and enforcement runs in one fixed order, so
/// the counters and the model are pinned: the grain units are dispatched
/// at may change, the order of the work may not.
#[test]
fn the_one_worker_run_is_pinned_on_dbpedia_1000() {
    // (seed, matches, pending, rechecks, model digest).
    let pins: [(u64, u64, u64, u64, u64); 2] = [
        (42, 3691, 2631, 0, 6029307853845826914),
        (7, 3450, 2333, 0, 15741811214073565067),
    ];
    for (seed, matches, pending, rechecks, model_digest) in pins {
        let w = real_life_workload(Dataset::DBpedia, 1000, seed, None);
        let (model, stats) = model(&w.sigma, &ReasonConfig::with_workers(1));
        let got = (stats.matches, stats.pending, stats.rechecks, digest(&model));
        assert_eq!(
            got,
            (matches, pending, rechecks, model_digest),
            "seed {seed}: (matches, pending, rechecks, digest)"
        );
    }
}

/// The relation a one-worker run ends with: the keys enforcement
/// materialized, plus the one key each pending match watches when it is
/// latent. Watching every key a pending premise waits on read 13 539.
#[test]
fn the_one_worker_relation_size_is_pinned_on_dbpedia_1000() {
    let w = real_life_workload(Dataset::DBpedia, 1000, 42, None);
    let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
    let cfg = ReasonConfig::with_workers(1);
    let run = run_reason(&w.sigma, Goal::Sat, EqRel::new(), &canon, &cfg);
    let eq = run.engine.expect("DBpedia-1000 is satisfiable").eq;
    assert_eq!(eq.key_count(), 6524);
}

/// The Imp probes generated with the same Σ keep one definite verdict,
/// the one they were generated to have, at every worker count. A run at
/// p > 1 that started no helper is the one-worker run: the same counts
/// and the same rules evaluated in the same order as at p = 1.
#[test]
fn dbpedia_1000_probe_verdicts_are_the_same_at_every_worker_count() {
    // Counts and the `RuleEval` rule ids in trace order.
    let solo_run = |m: &RunMetrics| {
        let evals = m
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::RuleEval);
        let rules: Vec<u32> = evals.map(|e| e.id).collect();
        (m.matches, m.pending, m.rechecks, m.units_dispatched, rules)
    };
    let (mut compared, mut multi_unit) = (0, 0);
    for seed in [42u64, 7] {
        let w = real_life_workload(Dataset::DBpedia, 1000, seed, None);
        assert!(!w.probes.is_empty());
        for probe in &w.probes {
            let mut one_worker = None;
            for workers in [1usize, 2, 8] {
                let cfg = ReasonConfig::with_workers(workers).with_trace(TraceSpec::enabled());
                let result = imp_with_config(&w.sigma, &probe.phi, &cfg);
                let implied = match result.outcome {
                    ImpOutcome::Implied(_) => true,
                    ImpOutcome::NotImplied => false,
                    ImpOutcome::Unknown(i) => panic!("{}: {i:?}", probe.phi.name),
                };
                assert_eq!(
                    implied, probe.expect_implied,
                    "seed {seed}, {workers} workers: {}",
                    probe.phi.name
                );
                let stats = &result.stats;
                assert_eq!(stats.trace.dropped, 0, "{}", probe.phi.name);
                if workers == 1 {
                    one_worker = Some(solo_run(stats));
                } else if stats.worker_busy.len() == 1 {
                    assert_eq!(
                        Some(solo_run(stats)),
                        one_worker,
                        "seed {seed}, {workers} workers, no helper started: {}",
                        probe.phi.name
                    );
                    compared += 1;
                    multi_unit += usize::from(stats.units_dispatched >= 2);
                }
            }
        }
    }
    println!("{compared} helperless p > 1 probe runs matched their p = 1 run ({multi_unit} of them ran 2+ units)");
    assert!(compared > 0, "no p > 1 probe run stayed on one worker");
    assert!(multi_unit > 0, "every compared probe run was a single unit");
}

/// `w`'s Σ plus a straggler: a hub rule whose one unit outlives a zero
/// TTL (six spokes each way, so 6^6 matches pivoted at the hub) and
/// merges `k` over hub and spokes, and a spoke rule whose premise waits
/// on those merges.
fn with_straggler(w: &mut Workload) -> DepSet {
    let (hub, link) = (w.vocab.label("hub"), w.vocab.label("link"));
    let (k, mark) = (w.vocab.attr("k"), w.vocab.attr("mark"));
    let (x, y) = (VarId::new(0), VarId::new(1));
    let mut fat = Pattern::new();
    let center = fat.add_node(hub, "x");
    for i in 0..6 {
        let leaf = fat.add_node(hub, format!("y{i}"));
        fat.add_edge(center, link, leaf);
        fat.add_edge(leaf, link, center);
    }
    let mut spoke = Pattern::new();
    let (from, to) = (spoke.add_node(hub, "x"), spoke.add_node(hub, "y"));
    spoke.add_edge(from, link, to);
    let mut sigma = w.sigma.clone();
    sigma.push(Dependency::new(
        "fat",
        fat,
        vec![],
        vec![Literal::eq_attr(x, k, y, k)],
    ));
    sigma.push(Dependency::new(
        "spoke",
        spoke,
        vec![Literal::eq_attr(x, k, y, k)],
        vec![Literal::eq_const(y, mark, 1i64)],
    ));
    sigma
}

/// A zero TTL splits the units that outlive it, so workers go idle while
/// their peers' splits still enforce and ops can be in flight when the
/// run goes quiet. The model is still the one a single worker reads out,
/// run after run. (The catch-up's own oracle tests are in `gfd-core`'s
/// driver: idle workers publish, so here it rarely has work left.)
#[test]
fn ops_in_flight_at_quiescence_leave_the_model_unchanged() {
    let mut w = real_life_workload(Dataset::DBpedia, 400, 42, None);
    let sigma = with_straggler(&mut w);
    let base = model(&sigma, &ReasonConfig::with_workers(1)).0;
    assert!(gfd::graph_satisfies_all(&base, &sigma));
    let base_attrs = attrs(&base);
    for workers in [2usize, 8] {
        let cfg = ReasonConfig::with_workers(workers).with_ttl(Duration::ZERO);
        for run in 0..5 {
            let (other, stats) = model(&sigma, &cfg);
            assert!(
                stats.units_split > 0,
                "{workers} workers, run {run}: TTL = 0 never split"
            );
            assert!(
                stats.delta_ops_broadcast > 0,
                "{workers} workers, run {run}"
            );
            assert_eq!(structure(&other), structure(&base));
            assert_eq!(
                attrs(&other),
                base_attrs,
                "run {run}: the model at {workers} workers, TTL = 0, differs from the one at 1"
            );
        }
    }
}
