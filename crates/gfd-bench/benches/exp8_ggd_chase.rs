//! Exp-8 (beyond paper): GGD chase makespan on the shared scheduler.
//!
//! Mixed GFD+GGD sets are routed through the chase: per round, premise scans run as scan units on the
//! work-stealing scheduler, and the apply phase now plans every fired
//! consequence in parallel too — realization checks and patch building
//! on the scheduler, then a conflict partition commits independent
//! firings concurrently and replays the overlapping residual serially
//! (DESIGN.md §12). This experiment measures how both phases scale: a
//! seeded generation-heavy tiered workload (`ggd_gen`) chased to
//! fixpoint at p = 1 → 8.
//!
//! Like Exp-1/Exp-7 the headline number is the **simulated makespan**
//! (max per-worker busy CPU time). With the apply wall broken, the
//! Amdahl floor is set only by the commit walk over the conflicting
//! residual; rows also break out scan vs apply wall time and the
//! independent-vs-conflict group counts. Results land in
//! `BENCH_exp8.json`, plus the run-report schema shared with the CLI's
//! `--metrics-json` in `BENCH_exp8.metrics.json` (DESIGN.md §13).
//!
//! `GFD_TRACE=FILE` additionally enables event tracing on the widest run
//! and writes its Chrome trace-event timeline to FILE — the file
//! `gfd trace-check` validates in CI.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_chase::{dep_sat_with_config, ChaseConfig};
use gfd_detect::{detect, DetectConfig, ViolationRecord};
use gfd_gen::{hub_workload, mixed_ggd_workload, GgdGenConfig, HubGenConfig};
use gfd_graph::{LabelIndex, Vocab};
use gfd_match::{IntersectStrategy, MatchPlan};
use gfd_runtime::{RunMetrics, TraceSpec};
use std::time::Duration;

fn main() {
    let scale = scale();
    banner(
        "Exp-8 (beyond paper): GGD chase makespan",
        "generating chase: scheduler scan rounds + serial materialization",
    );

    let cfg = match scale.name {
        "full" => GgdGenConfig {
            chain_depth: 6,
            gen_per_tier: 4,
            fanout: 3,
            literal_rules: 10,
            seed: 7,
        },
        _ => GgdGenConfig {
            chain_depth: 5,
            gen_per_tier: 3,
            fanout: 3,
            literal_rules: 8,
            seed: 7,
        },
    };
    let mut vocab = Vocab::new();
    let deps = mixed_ggd_workload(&cfg, &mut vocab);
    let generating = deps.iter().filter(|(_, d)| d.is_generating()).count();
    println!(
        "\nworkload: {} rule(s) ({generating} generating), chain depth {}, \
         fan-out ≤ {}, satisfiable",
        deps.len(),
        cfg.chain_depth,
        cfg.fanout,
    );

    // `GFD_TRACE=FILE` turns event tracing on for the widest run only, so
    // the timed narrower rows stay on the instrumentation's no-op path.
    let trace_path = std::env::var("GFD_TRACE").ok();
    let rule_names: Vec<String> = deps.iter().map(|(_, d)| d.name.clone()).collect();

    let workers = [1usize, 2, 4, 8];
    let mut table = Table::new(&[
        "p",
        "makespan",
        "speedup",
        "scan",
        "apply",
        "indep",
        "confl",
        "rounds",
        "generated",
        "steals",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    let mut base = Duration::ZERO;
    let mut base_generated = 0u64;
    let mut base_rounds = 0u64;
    let widest = *workers.last().unwrap();
    let mut widest_metrics = RunMetrics::default();
    for &p in &workers {
        let trace = if trace_path.is_some() && p == widest {
            TraceSpec::enabled()
        } else {
            TraceSpec::disabled()
        };
        let ccfg = ChaseConfig {
            workers: p,
            ttl: Duration::from_micros(200),
            batch: 8,
            max_generated_nodes: 10_000_000,
            trace,
            ..ChaseConfig::default()
        };
        let r = dep_sat_with_config(&deps, &ccfg);
        assert!(r.is_satisfiable(), "workload must reach a fixpoint");
        let makespan = r.metrics.makespan().unwrap_or_default();
        if p == 1 {
            base = makespan;
            base_generated = r.stats.generated_nodes;
            base_rounds = r.stats.rounds;
        }
        assert_eq!(
            r.stats.generated_nodes, base_generated,
            "generation must be p-invariant"
        );
        assert_eq!(r.stats.rounds, base_rounds, "rounds must be p-invariant");
        table.row(vec![
            p.to_string(),
            fmt_duration(makespan),
            format!(
                "{:.2}x",
                base.as_secs_f64() / makespan.as_secs_f64().max(1e-9)
            ),
            fmt_duration(r.stats.scan_time),
            fmt_duration(r.stats.apply_time),
            r.stats.apply_independent.to_string(),
            r.stats.apply_conflicts.to_string(),
            r.stats.rounds.to_string(),
            r.stats.generated_nodes.to_string(),
            r.metrics.units_stolen.to_string(),
        ]);
        rows.push(Row {
            p,
            makespan,
            scan: r.stats.scan_time,
            apply: r.stats.apply_time,
            independent: r.stats.apply_independent,
            conflicts: r.stats.apply_conflicts,
            rounds: r.stats.rounds,
            generated: r.stats.generated_nodes,
            evals: r.stats.premise_evals,
            steals: r.metrics.units_stolen,
        });
        if p == widest {
            widest_metrics = r.metrics.clone();
        }
    }

    println!("\nGGD chase makespan (max per-worker busy time) vs p:");
    table.print();
    println!(
        "\nexpected shape: both the premise scan and the apply planning pass\n\
         shrink with p; the conflict-free share of firings commits\n\
         concurrently, so only the conflicting residual's commit walk is\n\
         serial — rounds and generated nodes stay invariant across p\n\
         (round-snapshot semantics)."
    );

    // --- Hub workload row (DESIGN.md §15): a power-law graph with
    // string-heavy rules, detected at p = 1 vs the widest width. The
    // matcher must route the diamond rules' doubly-anchored step onto
    // the bitset merge, and the violation set — count and fingerprint —
    // must be invariant across p and across runs (seeded generation).
    let hcfg = match scale.name {
        "full" => HubGenConfig {
            nodes: 8_000,
            hub_degree: 128,
            ..HubGenConfig::default()
        },
        _ => HubGenConfig::default(),
    };
    let hub = hub_workload(&hcfg);
    let idx = LabelIndex::build(&hub.graph);
    let diamond = hub
        .sigma
        .iter()
        .find(|(_, d)| d.name.starts_with("hub_diamond"))
        .expect("hub preset emits diamond rules")
        .1;
    let plan = MatchPlan::build(&diamond.pattern, None, Some(&idx));
    assert!(
        plan.steps()
            .iter()
            .any(|s| s.strategy == IntersectStrategy::Bitset),
        "hub workload must push a doubly-anchored step into the bitset regime"
    );
    println!(
        "\nhub workload {}: {} nodes, {} edges, {} rules \
         (diamond step plans as bitset merge)",
        hub.name,
        hub.graph.node_count(),
        hub.graph.edge_count(),
        hub.sigma.len(),
    );
    let mut hub_rows: Vec<(usize, Duration, usize)> = Vec::new();
    let mut hub_fp = 0u64;
    let mut table = Table::new(&["p", "time", "violations", "fingerprint"]);
    for &p in &[1usize, widest] {
        let config = DetectConfig {
            ttl: scale.default_ttl,
            max_violations: usize::MAX,
            ..DetectConfig::with_workers(p)
        };
        let mut found = 0usize;
        let mut fp = 0u64;
        let t = time_median(scale.repeats, || {
            let r = detect(&hub.graph, &hub.sigma, &config);
            found = r.violations.len();
            fp = violation_fingerprint(&r.violations);
        });
        if p == 1 {
            hub_fp = fp;
        } else {
            assert_eq!(
                (found, fp),
                (hub_rows[0].2, hub_fp),
                "hub violations must be p-invariant"
            );
        }
        table.row(vec![
            p.to_string(),
            fmt_duration(t),
            found.to_string(),
            format!("{fp:016x}"),
        ]);
        hub_rows.push((p, t, found));
    }
    println!("\nhub-workload detection (bitset-pruned matching):");
    table.print();

    let json = render_json(scale.name, &cfg, base, &rows, &hcfg, &hub_rows, hub_fp);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exp8.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // The widest run's full report, in the exact schema the CLI's
    // `--metrics-json` emits — one format for bench and CLI consumers.
    let metrics_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exp8.metrics.json");
    match std::fs::write(metrics_path, widest_metrics.to_json(&rule_names)) {
        Ok(()) => println!("wrote {metrics_path} (p = {widest} run report)"),
        Err(e) => println!("could not write {metrics_path}: {e}"),
    }

    if let Some(tp) = trace_path {
        let chrome = widest_metrics.trace.to_chrome_json(&rule_names);
        match std::fs::write(&tp, chrome) {
            Ok(()) => println!(
                "wrote {tp} ({} event(s), {} dropped) — validate with `gfd trace-check`",
                widest_metrics.trace.events.len(),
                widest_metrics.trace.dropped,
            ),
            Err(e) => println!("could not write {tp}: {e}"),
        }
    }
}

struct Row {
    p: usize,
    makespan: Duration,
    scan: Duration,
    apply: Duration,
    independent: u64,
    conflicts: u64,
    rounds: u64,
    generated: u64,
    evals: u64,
    steals: u64,
}

/// An order-insensitive FNV-1a fold over the violation set: each record
/// keyed by (rule, match, failed literals), the keys sorted before
/// hashing so worker scheduling cannot perturb the digest.
fn violation_fingerprint(vs: &[ViolationRecord]) -> u64 {
    let mut keys: Vec<Vec<u64>> = vs
        .iter()
        .map(|v| {
            let mut k = vec![v.gfd.index() as u64];
            k.extend(v.m.iter().map(|n| n.index() as u64));
            k.extend(v.failed.iter().map(|&i| i as u64));
            k
        })
        .collect();
    keys.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in keys.iter().flatten() {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: &str,
    cfg: &GgdGenConfig,
    base: Duration,
    rows: &[Row],
    hcfg: &HubGenConfig,
    hub_rows: &[(usize, Duration, usize)],
    hub_fp: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"exp8_ggd_chase\",\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!(
        "  \"chain_depth\": {}, \"gen_per_tier\": {}, \"fanout\": {},\n",
        cfg.chain_depth, cfg.gen_per_tier, cfg.fanout
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"makespan_ms\": {:.3}, \"speedup\": {:.2}, \
             \"scan_ms\": {:.3}, \"apply_ms\": {:.3}, \
             \"apply_independent\": {}, \"apply_conflicts\": {}, \
             \"rounds\": {}, \"generated_nodes\": {}, \
             \"premise_evals\": {}, \"steals\": {}}}{}\n",
            r.p,
            r.makespan.as_secs_f64() * 1e3,
            base.as_secs_f64() / r.makespan.as_secs_f64().max(1e-9),
            r.scan.as_secs_f64() * 1e3,
            r.apply.as_secs_f64() * 1e3,
            r.independent,
            r.conflicts,
            r.rounds,
            r.generated,
            r.evals,
            r.steals,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"hub\": {{\"nodes\": {}, \"hubs\": {}, \"hub_degree\": {}, \
         \"rules\": {}, \"fingerprint\": \"{:016x}\", \"rows\": [\n",
        hcfg.nodes, hcfg.hubs, hcfg.hub_degree, hcfg.rules, hub_fp
    ));
    for (i, &(p, t, found)) in hub_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"detect_ms\": {:.3}, \"violations\": {}}}{}\n",
            p,
            t.as_secs_f64() * 1e3,
            found,
            if i + 1 == hub_rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]}\n}\n");
    out
}
