//! Scheduler-equivalence suite: the three reasoning workloads (Sat, Imp,
//! Detect) run on one shared work-stealing scheduler, and this file pins
//! the contract that made the unification safe — every worker count and
//! TTL-forced splitting on every unit produce exactly the sequential
//! answers.
//!
//! CI runs this suite once per entry of `GFD_EQ_WORKERS` (a single worker
//! count overriding the default `{1, 2, 8}` sweep), and again with
//! `GFD_EQ_TRACE=1` to pin that the observability layer (DESIGN.md §13)
//! never perturbs answers.

use gfd::detect::{detect, DetectConfig};
use gfd::prelude::*;
use gfd::runtime::TraceSpec;
use std::time::Duration;

/// Worker counts to sweep: `GFD_EQ_WORKERS=n` pins a single count (the CI
/// matrix), default is {1, 2, 8}.
fn worker_counts() -> Vec<usize> {
    match std::env::var("GFD_EQ_WORKERS") {
        Ok(v) => vec![v.parse().expect("GFD_EQ_WORKERS must be an integer")],
        Err(_) => vec![1, 2, 8],
    }
}

/// `GFD_EQ_TRACE=1` runs the whole sweep with event tracing enabled, so
/// every equivalence assertion doubles as a tracing non-interference
/// check; the default leaves the instrumentation on its no-op path.
fn trace_spec() -> TraceSpec {
    if std::env::var("GFD_EQ_TRACE").as_deref() == Ok("1") {
        TraceSpec::enabled()
    } else {
        TraceSpec::disabled()
    }
}

/// A config whose TTL of zero forces a split attempt on every unit that
/// survives a single deadline poll.
fn splitty(p: usize) -> ReasonConfig {
    ReasonConfig::with_workers(p)
        .with_ttl(Duration::ZERO)
        .with_trace(trace_spec())
}

#[test]
fn sat_agrees_with_sequential_under_forced_splitting() {
    for seed in [3u64, 11, 29] {
        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 40, seed, None);
        let expected = gfd::seq_sat(&w.sigma).is_satisfiable();
        for p in worker_counts() {
            let r = gfd::sat_with_config(&w.sigma, &splitty(p));
            assert_eq!(
                r.is_satisfiable(),
                expected,
                "sat diverged: seed={seed} p={p}"
            );
        }
    }
}

#[test]
fn sat_conflict_detection_is_worker_count_invariant() {
    // Workload with injected conflicts: must be UNSAT everywhere.
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Yago2, 60, 5, Some(2));
    assert!(!gfd::seq_sat(&w.sigma).is_satisfiable());
    for p in worker_counts() {
        let r = gfd::sat_with_config(&w.sigma, &splitty(p));
        assert!(!r.is_satisfiable(), "p={p}");
    }
}

#[test]
fn imp_agrees_with_sequential_under_forced_splitting() {
    let w = gfd::gen::synthetic_workload(40, 4, 3, 17);
    assert!(!w.probes.is_empty());
    for probe in &w.probes {
        let expected = gfd::seq_imp(&w.sigma, &probe.phi).is_implied();
        assert_eq!(expected, probe.expect_implied, "oracle drifted");
        for p in worker_counts() {
            let r = gfd::imp_with_config(&w.sigma, &probe.phi, &splitty(p));
            assert_eq!(r.is_implied(), expected, "imp diverged: p={p}");
        }
    }
}

#[test]
fn detect_agrees_with_the_oracle_under_forced_splitting() {
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 12, 23, None);
    let mut graph = gfd::gen::random_graph(
        &w.schema,
        &gfd::gen::GraphGenConfig {
            nodes: 120,
            edges: 360,
            attr_prob: 0.3,
            seed: 23,
        },
    );
    for (i, (_, gfd)) in w.sigma.iter().take(4).enumerate() {
        gfd::gen::plant_violation(&mut graph, gfd, &w.schema, 23 + i as u64);
    }
    let mut oracle: Vec<(usize, Vec<usize>)> = gfd::find_violations(&graph, &w.sigma, usize::MAX)
        .iter()
        .map(|v| (v.gfd.index(), v.m.iter().map(|n| n.index()).collect()))
        .collect();
    oracle.sort();
    assert!(!oracle.is_empty());
    for p in worker_counts() {
        let config = DetectConfig {
            ttl: Duration::ZERO,
            batch_size: 4,
            trace: trace_spec(),
            ..DetectConfig::with_workers(p)
        };
        let report = detect(&graph, &w.sigma, &config);
        let mut got: Vec<(usize, Vec<usize>)> = report
            .violations
            .iter()
            .map(|v| (v.gfd.index(), v.m.iter().map(|n| n.index()).collect()))
            .collect();
        got.sort();
        assert_eq!(got, oracle, "detect diverged: p={p}");
    }
}

/// A deliberately skewed Σ: one fat star pattern whose unit dwarfs
/// everything else, plus trivial unary rules contributing a crowd of
/// near-instant units. The unary rules read the attribute the fat rule
/// writes, so the fat unit is ordered first: the worker it lands on still
/// holds a queue of them while it runs.
fn skewed_sigma(vocab: &mut Vocab) -> DepSet {
    let t = vocab.label("hub");
    let e = vocab.label("link");
    let a = vocab.attr("attr");
    let mark = vocab.attr("mark");
    let mut gfds = Vec::new();
    let mut fat = Pattern::new();
    let hub = fat.add_node(t, "hub");
    for i in 0..6 {
        let leaf = fat.add_node(t, format!("leaf{i}"));
        fat.add_edge(hub, e, leaf);
        fat.add_edge(leaf, e, hub);
    }
    gfds.push(Dependency::new(
        "fat",
        fat,
        vec![],
        vec![Literal::eq_const(VarId::new(0), a, 1i64)],
    ));
    for i in 0..8 {
        let mut p = Pattern::new();
        p.add_node(t, "x");
        gfds.push(Dependency::new(
            format!("tiny{i}"),
            p,
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            vec![Literal::eq_const(VarId::new(0), mark, 1i64)],
        ));
    }
    DepSet::from_vec(gfds)
}

#[test]
fn steal_heavy_skewed_workload_balances_and_agrees() {
    let mut vocab = Vocab::new();
    let sigma = skewed_sigma(&mut vocab);
    let expected = gfd::seq_sat(&sigma).is_satisfiable();
    // A worker stuck on the fat unit leaves the rest of its queue for the
    // others: some run must steal. Retry a few times to shrug off
    // scheduling noise on loaded CI hosts.
    let mut stole = false;
    for _ in 0..5 {
        let cfg = ReasonConfig::with_workers(2).without_split();
        let r = gfd::sat_with_config(&sigma, &cfg);
        assert_eq!(r.is_satisfiable(), expected);
        assert_eq!(
            r.stats.units_dispatched, r.stats.units_generated as u64,
            "no-split run must execute exactly the seeded units"
        );
        if r.stats.units_stolen > 0 {
            stole = true;
            break;
        }
    }
    assert!(stole, "skewed workload never triggered a steal");
}

#[test]
fn forced_splitting_splits_and_metrics_add_up() {
    let mut vocab = Vocab::new();
    let sigma = skewed_sigma(&mut vocab);
    for p in worker_counts() {
        let r = gfd::sat_with_config(&sigma, &splitty(p));
        assert!(r.is_satisfiable());
        assert!(
            r.stats.units_split > 0,
            "TTL=0 must split the fat unit: p={p} {:?}",
            r.stats
        );
        assert_eq!(
            r.stats.units_dispatched,
            r.stats.units_generated as u64 + r.stats.units_split,
            "p={p}"
        );
        assert_eq!(r.stats.worker_busy.len(), p);
        assert_eq!(r.stats.worker_idle.len(), p);
    }
}

#[test]
fn tracing_does_not_perturb_answers_or_unit_accounting() {
    // The non-interference contract of DESIGN.md §13, head-to-head: the
    // same workload with tracing off and on must agree on the answer and
    // on the deterministic unit accounting (generated units are the
    // seeded scans — splits and steals are timing-dependent and are NOT
    // compared). The off run must record nothing; the on run must record
    // the per-unit spans the exporters consume.
    let w = gfd::gen::synthetic_workload(40, 4, 3, 9);
    let expected = gfd::seq_sat(&w.sigma).is_satisfiable();
    for p in worker_counts() {
        let base = ReasonConfig::with_workers(p).with_ttl(Duration::ZERO);
        let off = gfd::sat_with_config(&w.sigma, &base.clone().with_trace(TraceSpec::disabled()));
        let on = gfd::sat_with_config(&w.sigma, &base.with_trace(TraceSpec::enabled()));
        assert_eq!(off.is_satisfiable(), expected, "p={p} tracing off");
        assert_eq!(on.is_satisfiable(), expected, "p={p} tracing on");
        assert_eq!(
            off.stats.units_generated, on.stats.units_generated,
            "tracing changed the seeded unit count: p={p}"
        );
        assert!(
            off.stats.trace.is_empty(),
            "disabled tracing recorded events: p={p}"
        );
        assert!(
            !on.stats.trace.is_empty(),
            "enabled tracing recorded nothing: p={p}"
        );
    }
}
