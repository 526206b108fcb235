//! Criterion microbenchmarks of the core data structures, and the
//! asserted guards CI runs on their own
//! (`cargo bench -p gfd-bench --bench micro_structures guards_only`: the
//! filter matches no benchmark id, so only the guard functions do work).
//! Every guard runs and prints its verdict; the program fails at the end,
//! listing every bound that tripped.

use criterion::{BenchmarkId, Criterion};
use gfd_core::{sat_with_config, EqRel, ReasonConfig};
use gfd_gen::synthetic_workload;
use gfd_graph::{AttrId, Graph, LabelIndex, NodeId, Pattern, Vocab};
use gfd_match::MatchPlan;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The guard bounds that tripped so far. A trip is recorded rather than
/// raised, so a bound tripped by host load hides none of the guards after
/// it; `main` fails once they all ran.
static TRIPS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Check a guard bound: print its verdict, and record a trip for `main`.
macro_rules! guard {
    ($cond:expr, $($msg:tt)+) => {
        if $cond {
            println!("guard ok: {}", stringify!($cond));
        } else {
            let trip = format!($($msg)+);
            println!("guard TRIPPED: {trip}");
            TRIPS.lock().unwrap().push(trip);
        }
    };
}

fn bench_eq_rel(c: &mut Criterion) {
    let mut g = c.benchmark_group("eq_rel");
    g.bench_function("bind_1k", |b| {
        b.iter(|| {
            let mut eq = EqRel::new();
            for i in 0..1000usize {
                eq.bind(
                    (NodeId::new(i), AttrId::new(i % 7)),
                    gfd_graph::ValueId::of((i % 5) as i64),
                )
                .unwrap();
            }
            black_box(eq.key_count())
        })
    });
    g.bench_function("merge_chain_1k", |b| {
        b.iter(|| {
            let mut eq = EqRel::new();
            for i in 0..1000usize {
                eq.merge(
                    (NodeId::new(i), AttrId::new(0)),
                    (NodeId::new(i + 1), AttrId::new(0)),
                )
                .unwrap();
            }
            black_box(eq.same_class(
                (NodeId::new(0), AttrId::new(0)),
                (NodeId::new(1000), AttrId::new(0)),
            ))
        })
    });
    g.finish();
}

/// A ring-with-chords graph that gives the matcher real work.
fn ring_graph(n: usize, vocab: &mut Vocab) -> Graph {
    let t = vocab.label("t");
    let e = vocab.label("e");
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(t)).collect();
    for i in 0..n {
        g.add_edge(nodes[i], e, nodes[(i + 1) % n]);
        g.add_edge(nodes[i], e, nodes[(i + 7) % n]);
    }
    g
}

fn bench_matching(c: &mut Criterion) {
    let mut vocab = Vocab::new();
    let g = ring_graph(256, &mut vocab);
    let idx = LabelIndex::build(&g);
    let t = vocab.label("t");
    let e = vocab.label("e");
    let mut path4 = Pattern::new();
    let vars: Vec<_> = (0..4).map(|i| path4.add_node(t, format!("v{i}"))).collect();
    for w in vars.windows(2) {
        path4.add_edge(w[0], e, w[1]);
    }

    let mut group = c.benchmark_group("matching");
    group.bench_function("count_path4_ring256", |b| {
        b.iter(|| black_box(gfd_match::count_matches(&g, &idx, &path4)))
    });
    group.bench_function("plan_build", |b| {
        b.iter(|| black_box(MatchPlan::build(&path4, None, Some(&idx))))
    });
    group.finish();
}

/// A graph with average out-degree ≥ 16 across several edge labels: the
/// regime where the frozen CSR's O(log d) probes and label sub-slices
/// must beat the builder's Vec scans (DESIGN.md §1).
fn dense_graph(n: usize, out_degree: usize, labels: usize, vocab: &mut Vocab) -> Graph {
    let t = vocab.label("t");
    let ls: Vec<_> = (0..labels).map(|i| vocab.label(&format!("e{i}"))).collect();
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(t)).collect();
    for i in 0..n {
        for j in 1..=out_degree {
            // Deterministic pseudo-random targets, spread over labels.
            let dst = (i * 31 + j * 97) % n;
            g.add_edge(nodes[i], ls[j % labels], nodes[dst]);
        }
    }
    g
}

/// Head-to-head: builder Vec-scan vs frozen CSR on the two probes that
/// dominate the matching hot path.
fn bench_structures(c: &mut Criterion) {
    let mut vocab = Vocab::new();
    let n = 1024;
    let degree = 32; // well past the ≥16 crossover regime
    let g = dense_graph(n, degree, 4, &mut vocab);
    let csr = g.freeze();
    let labels: Vec<_> = (0..4).map(|i| vocab.label(&format!("e{i}"))).collect();

    // A fixed probe mix: half hits (the exact label and target an edge
    // was built with), half misses.
    let probes: Vec<(NodeId, gfd_graph::LabelId, NodeId)> = (0..512)
        .map(|k| {
            let src = (k * 53) % n;
            if k % 2 == 0 {
                // dense_graph added src --e{j%4}--> (src*31 + j*97) % n.
                let j = k % degree + 1;
                let dst = (src * 31 + j * 97) % n;
                (NodeId::new(src), labels[j % 4], NodeId::new(dst))
            } else {
                let dst = (src * 31 + 1) % n; // usually absent
                (NodeId::new(src), labels[k % 4], NodeId::new(dst))
            }
        })
        .collect();
    let hits = probes
        .iter()
        .filter(|&&(s, l, d)| g.has_edge(s, l, d))
        .count();
    assert!(
        (200..=312).contains(&hits),
        "probe mix should be roughly half hits, got {hits}/512"
    );

    let mut group = c.benchmark_group("micro_structures");
    group.bench_function("has_edge/vec_scan", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&(s, l, d)| g.has_edge(s, l, d))
                .count()
        })
    });
    group.bench_function("has_edge/csr", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&(s, l, d)| csr.has_edge(s, l, d))
                .count()
        })
    });

    // Anchored expansion: candidates of (node, label), deduplicated —
    // the Vec-scan variant filters the whole adjacency with a
    // `contains` dedup exactly as the pre-CSR matcher did.
    group.bench_function("anchored_expansion/vec_scan", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..n {
                let v = NodeId::new(i);
                let label = labels[i % 4];
                let mut candidates: Vec<NodeId> = Vec::new();
                for &(el, node) in g.out_edges(v) {
                    if label.pattern_matches(el) && !candidates.contains(&node) {
                        candidates.push(node);
                    }
                }
                total += candidates.len();
            }
            total
        })
    });
    group.bench_function("anchored_expansion/csr", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..n {
                let v = NodeId::new(i);
                let label = labels[i % 4];
                // Sub-slice node ids strictly increase: dedup is free.
                total += csr.out_with_label(v, label).len();
            }
            total
        })
    });
    group.finish();
}

/// One small satisfiability workload on the work-stealing scheduler at
/// p ∈ {2, 4, 8}: what a whole scheduled run costs as workers are added.
fn bench_scheduler(c: &mut Criterion) {
    let w = synthetic_workload(60, 5, 3, 7);
    assert!(sat_with_config(&w.sigma, &ReasonConfig::with_workers(2)).is_satisfiable());
    let mut group = c.benchmark_group("sched");
    for p in [2usize, 4, 8] {
        let cfg = ReasonConfig::with_workers(p);
        group.bench_with_input(BenchmarkId::new("work_stealing", p), &cfg, |b, cfg| {
            b.iter(|| black_box(sat_with_config(&w.sigma, cfg).is_satisfiable()))
        });
    }
    group.finish();
}

/// Head-to-head guard for the observability layer (DESIGN.md §13), in two
/// halves. First the dormant path in isolation: a disabled `TraceBuf`'s
/// per-event-site cost must stay branch-cheap (no clock read, no ring
/// write). Then the sched workload off-vs-on: with event tracing
/// *enabled* the run must stay within 2% of the trace-disabled run
/// (interleaved min-of-runs, robust to load spikes). The disabled path
/// executes a strict subset of the enabled path's per-event work, so the
/// asserted bound also caps what the no-op instrumentation costs a
/// production run. The workload uses k = 6 patterns so per-unit match
/// work amortizes the enabled path's two clock reads per span — the
/// regime every real workload is in; tracing sub-microsecond units is
/// what the ring's drop counter is for.
fn bench_trace_overhead(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_runtime::{EventKind, TraceBuf, TraceSpec};
    use std::time::{Duration, Instant};

    // Half 1: the no-op event site against the same loop without it
    // (`black_box` keeps that loop), alternating so host load reaches
    // both. Load only adds time: the difference of the bests is the site's.
    const SITES: u32 = 100_000;
    let mut buf = TraceBuf::new(black_box(TraceSpec::disabled()), 0);
    let mut pass = |site: bool| {
        let start = Instant::now();
        for i in 0..SITES {
            if black_box(site) {
                let span = buf.start();
                buf.span(EventKind::RuleEval, i, span, 1, 0);
            }
        }
        black_box(&mut buf);
        start.elapsed()
    };
    let (mut bare, mut sites) = (Duration::MAX, Duration::MAX);
    for _ in 0..101 {
        (bare, sites) = (bare.min(pass(false)), sites.min(pass(true)));
    }
    let per_site = (sites.as_secs_f64() - bare.as_secs_f64()) * 1e9 / f64::from(SITES);
    println!("trace_disabled_event_site: {per_site:.2} ns/site beyond the bare loop (best of 101)");
    guard!(
        per_site < 1.5,
        "disabled event site must stay inlined and branch-cheap, got {per_site:.2} ns"
    );

    // Half 2: the sched workload (the same one `bench_scheduler` times),
    // tracing off vs on. The enabled ring is sized to the run: the
    // default 2^16-entry ring is a ~3 MiB-per-worker allocation that
    // would dominate a millisecond-scale run as a fixed cost, which is
    // start-up amortization, not per-event overhead.
    let w = synthetic_workload(60, 5, 3, 7);
    let off_cfg = ReasonConfig::with_workers(4).with_trace(TraceSpec::disabled());
    let on_cfg = ReasonConfig::with_workers(4).with_trace(TraceSpec::with_capacity(1 << 12));
    let run = |cfg: &ReasonConfig| {
        let start = Instant::now();
        black_box(sat_with_config(&w.sigma, cfg).is_satisfiable());
        start.elapsed()
    };
    let (_, _) = (run(&off_cfg), run(&on_cfg)); // warm-up
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..9 {
        off = off.min(run(&off_cfg));
        on = on.min(run(&on_cfg));
    }
    let overhead = on.as_secs_f64() / off.as_secs_f64() - 1.0;
    println!(
        "sched_trace_overhead/p4: trace_off {}  trace_on {}  overhead {:+.2}%",
        fmt_duration(off),
        fmt_duration(on),
        overhead * 100.0,
    );
    // 2% relative plus a 2ms absolute floor: quick-scale runs are a few
    // tens of ms, where a bare percentage would amplify timer noise.
    guard!(
        on <= off.mul_f64(1.02) + Duration::from_millis(2),
        "tracing overhead exceeded 2%: off={off:?} on={on:?}"
    );
}

/// Asserted guard for the interned-value literal path (DESIGN.md §15):
/// a `ValueId` equality check must beat the `Value::Str(Arc<str>)`
/// content compare by ≥ 3x on a string-heavy mix, and must not regress
/// the balanced (int-heavy) mix the old representation was already fast
/// on. Both sides answer the same probe list and must agree exactly —
/// id equality ⟺ value equality is what makes the substitution sound.
fn bench_literal_interning(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_graph::{Value, ValueId};
    use std::time::{Duration, Instant};

    // 64 distinct strings with a long shared prefix, so content compares
    // walk real bytes before diverging. Left/right pools are allocated
    // separately: equal contents never share an `Arc`, exactly like two
    // occurrences parsed from different input lines pre-interning.
    let make_str_pool = || -> Vec<Value> {
        (0..64)
            .map(|i| {
                Value::str(format!(
                    "the-quick-brown-fox-jumps-over-the-lazy-dog/{:03}",
                    i % 48 // 48 distinct values, some duplicated
                ))
            })
            .collect()
    };
    let make_int_pool = || -> Vec<Value> { (0..64).map(|i| Value::int((i % 48) as i64)).collect() };

    let probes: Vec<(usize, usize)> = (0..4096)
        .map(|k| ((k * 31) % 64, (k * 17 + k / 64) % 64))
        .collect();
    const SWEEPS: usize = 400;

    let guard = |label: &str, left: Vec<Value>, right: Vec<Value>, min_ratio: f64| {
        let left_ids: Vec<ValueId> = left.iter().map(|v| ValueId::of(v.clone())).collect();
        let right_ids: Vec<ValueId> = right.iter().map(|v| ValueId::of(v.clone())).collect();
        let run_values = || {
            let start = Instant::now();
            let mut eq = 0usize;
            for _ in 0..SWEEPS {
                for &(i, j) in &probes {
                    if left[i] == right[j] {
                        eq += 1;
                    }
                }
            }
            (start.elapsed(), black_box(eq))
        };
        let run_ids = || {
            let start = Instant::now();
            let mut eq = 0usize;
            for _ in 0..SWEEPS {
                for &(i, j) in &probes {
                    if left_ids[i] == right_ids[j] {
                        eq += 1;
                    }
                }
            }
            (start.elapsed(), black_box(eq))
        };
        let (_, val_eq) = run_values();
        let (_, id_eq) = run_ids(); // warm-up both paths
        assert_eq!(val_eq, id_eq, "{label}: interned equality must agree");
        let (mut vals_t, mut ids_t) = (Duration::MAX, Duration::MAX);
        for _ in 0..9 {
            vals_t = vals_t.min(run_values().0);
            ids_t = ids_t.min(run_ids().0);
        }
        let ratio = vals_t.as_secs_f64() / ids_t.as_secs_f64().max(1e-9);
        println!(
            "literal_check/{label}: arc_str {}  value_id {}  ({ratio:.1}x)",
            fmt_duration(vals_t),
            fmt_duration(ids_t),
        );
        guard!(
            ids_t.mul_f64(min_ratio) <= vals_t + Duration::from_millis(2),
            "{label}: interned check only {ratio:.2}x faster (need ≥ {min_ratio}x): \
             values={vals_t:?} ids={ids_t:?}"
        );
    };

    // String-heavy mix: the acceptance bar is ≥ 3x.
    guard("string_heavy", make_str_pool(), make_str_pool(), 3.0);
    // Balanced (int-heavy) mix: ints were already a word compare, so the
    // bar is only "no regression" (ratio ≥ 1 within the noise floor).
    guard("balanced_int", make_int_pool(), make_int_pool(), 1.0);
}

/// Asserted guard for the bitset / merge intersection crossover
/// (DESIGN.md §15). Pins the plan-layer constants, checks the slice
/// kernels agree, and asserts the regime map the planner encodes:
///
/// * the hub regime, end to end: a multi-anchored step over fat,
///   overlapping adjacencies, searched with the stats-driven plan
///   (which routes the step through the bitset merge) must beat the
///   same plan with the bitset demoted (`MatchPlan::without_bitset`):
///   sorted merge + per-candidate probes — same `HomSearch`, same
///   ordering, same matches, only the strategy differs;
/// * balanced sparse: the two-pointer stays ahead of the bitset (the
///   case the `BITSET_ANCHOR_DEGREE` gate protects).
fn bench_intersect_crossover(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_match::{
        intersect_slices_bitset, intersect_slices_two_pointer, HomSearch, IntersectStrategy,
        SearchLimits, BITSET_ANCHOR_DEGREE, BITSET_MIN_CANDIDATES,
    };
    use std::ops::ControlFlow;
    use std::time::{Duration, Instant};

    // The constants the planner and runtime gate on; DESIGN.md §15
    // documents these values, and the hub workload generator sizes its
    // head degree against them.
    assert_eq!(BITSET_ANCHOR_DEGREE, 64, "plan-layer bitset gate moved");
    assert_eq!(BITSET_MIN_CANDIDATES, 64, "runtime bitset gate moved");

    // `long` = every 3rd id of a 192k universe; `short` = 64 scattered
    // ids (1000x skew); `mid` = comparable density for the balanced case.
    // The kernels must agree everywhere.
    let long: Vec<NodeId> = (0..65_536usize).map(|i| NodeId::new(i * 3)).collect();
    let short: Vec<NodeId> = (0..64usize).map(|i| NodeId::new(i * 3001)).collect();
    let mid: Vec<NodeId> = (0..65_536usize).map(|i| NodeId::new(i * 3 + 1)).collect();
    for (a, b) in [(&short, &long), (&mid, &long)] {
        let expect = intersect_slices_two_pointer(a, b);
        assert_eq!(intersect_slices_bitset(a, b), expect);
    }

    // Hub regime: five hubs with fat, heavily-overlapping spoke
    // adjacencies (residue windows mod 64, so pairwise overlaps stay
    // large but the last window thins the final intersection) and a
    // 7-node pattern whose last variable is anchored on all five. The
    // merge fallback intersects the two smallest adjacencies and then
    // binary-probes every surviving candidate against each remaining
    // anchor — the high overlap keeps those survivors alive through
    // most probes. The bitset fold streams each extra adjacency through
    // the scratch set once, one u64 AND per 64 nodes. `without_bitset`
    // demotes only the strategy, so ordering and anchors are identical
    // and the timing isolates the candidate-generation path.
    // Sized so each hub adjacency clearly outgrows L2, and windowed so
    // the hubs overlap almost completely: survivors stay fat through
    // every per-candidate probe of the merge fallback, which is exactly
    // the regime where folding whole adjacencies through the bitset
    // beats probing candidates one at a time.
    const SPOKES: usize = 245_760;
    // Each hub covers spokes whose index mod 64 falls in the window.
    const WINDOWS: [(usize, usize); 5] = [(0, 16), (0, 16), (0, 16), (0, 16), (8, 24)];
    let mut vocab = Vocab::new();
    let r_lbl = vocab.label("root");
    let hub_lbls: Vec<_> = ["ha", "hb", "hc", "hd", "he"]
        .into_iter()
        .map(|n| vocab.label(n))
        .collect();
    let s_lbl = vocab.label("spoke");
    let e = vocab.label("e");
    let mut g = Graph::new();
    let root = g.add_node(r_lbl);
    let hubs: Vec<NodeId> = hub_lbls.iter().map(|&l| g.add_node(l)).collect();
    for &h in &hubs {
        g.add_edge(root, e, h);
        g.add_edge(h, e, root);
    }
    for i in 0..hubs.len() {
        for j in i + 1..hubs.len() {
            g.add_edge(hubs[i], e, hubs[j]);
        }
    }
    let spokes: Vec<NodeId> = (0..SPOKES).map(|_| g.add_node(s_lbl)).collect();
    for (hi, (lo, hi_end)) in WINDOWS.into_iter().enumerate() {
        for (si, &sp) in spokes.iter().enumerate() {
            if (lo..hi_end).contains(&(si % 64)) {
                g.add_edge(hubs[hi], e, sp);
            }
        }
    }
    let idx = LabelIndex::build(&g);
    // Reciprocal r ↔ hub edges plus a hub clique keep every unplaced
    // hub's connectivity to the prefix strictly ahead of `d`'s, so the
    // connectivity-first ordering defers `d` until every hub is bound —
    // the multi-anchored closing step under test.
    let mut pat = Pattern::new();
    let r = pat.add_node(r_lbl, "r");
    let d_hubs: Vec<_> = ["a", "b", "c", "d4", "e5"]
        .into_iter()
        .zip(hub_lbls.iter().copied())
        .map(|(name, l)| pat.add_node(l, name))
        .collect();
    let d = pat.add_node(s_lbl, "d");
    for &h in &d_hubs {
        pat.add_edge(r, e, h);
        pat.add_edge(h, e, r);
        pat.add_edge(h, e, d);
    }
    for i in 0..d_hubs.len() {
        for j in i + 1..d_hubs.len() {
            pat.add_edge(d_hubs[i], e, d_hubs[j]);
        }
    }
    let stats_plan = MatchPlan::build(&pat, None, Some(&idx));
    let last = stats_plan.steps().last().expect("non-empty plan");
    assert_eq!(last.var, d, "spoke variable must close the plan");
    let closing = stats_plan.anchors(stats_plan.len() - 1);
    assert_eq!(closing.len(), 5, "closing step must carry all anchors");
    assert_eq!(
        last.strategy,
        IntersectStrategy::Bitset,
        "stats plan must route the triply-anchored step through the bitset"
    );
    let merge_plan = stats_plan.without_bitset();
    assert!(
        merge_plan
            .steps()
            .iter()
            .all(|s| s.strategy != IntersectStrategy::Bitset),
        "demoted plan must stay on the merge path"
    );
    let count_with = |plan: &MatchPlan| -> usize {
        let mut count = 0usize;
        HomSearch::new(&g, &idx, &pat, plan).run(
            |_| {
                count += 1;
                ControlFlow::<()>::Continue(())
            },
            SearchLimits::none(),
        );
        count
    };
    let expect = count_with(&merge_plan);
    assert_eq!(count_with(&stats_plan), expect, "plans must agree");
    // d ranges over spokes in every window: residues [8, 16) mod 64.
    assert_eq!(expect, SPOKES / 64 * 8, "hub fixture match count drifted");
    // Timing probe: stop at the first match. Every intersection —
    // two-pointer merge, per-candidate probes, bitset folds — happens
    // while the closing frame is built, before anything is emitted, so
    // breaking early times pure candidate generation with the shared
    // match-emission cost excluded.
    let first_match = |plan: &MatchPlan| -> usize {
        let mut n = 0usize;
        HomSearch::new(&g, &idx, &pat, plan).run(
            |_| {
                n += 1;
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        n
    };

    let time = |f: &dyn Fn() -> usize| {
        let mut best = Duration::MAX;
        black_box(f()); // warm-up
        for _ in 0..9 {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed());
        }
        best
    };
    let floor = Duration::from_micros(500);

    let hub_merge = time(&|| (0..4).map(|_| first_match(&merge_plan)).sum());
    let hub_bit = time(&|| (0..4).map(|_| first_match(&stats_plan)).sum());
    println!(
        "intersect_crossover/hub_search: merge_plan {}  bitset_plan {}  ({:.2}x)",
        fmt_duration(hub_merge),
        fmt_duration(hub_bit),
        hub_merge.as_secs_f64() / hub_bit.as_secs_f64().max(1e-9),
    );
    guard!(
        hub_bit <= hub_merge + floor,
        "bitset plan must win the hub regime: merge={hub_merge:?} bitset={hub_bit:?}"
    );

    let bal_two = time(&|| intersect_slices_two_pointer(&mid, &long).len());
    let bal_bit = time(&|| intersect_slices_bitset(&mid, &long).len());
    println!(
        "intersect_crossover/balanced: two_pointer {}  bitset {}",
        fmt_duration(bal_two),
        fmt_duration(bal_bit),
    );
    guard!(
        bal_two <= bal_bit + floor,
        "two-pointer must stay ahead on the balanced sparse case: \
         two={bal_two:?} bitset={bal_bit:?}"
    );
}

/// Asserted guard for the unit pipeline's serial set-up (DESIGN.md §4,
/// "unit set-up cost"): what `run_reason` does before it dispatches a
/// unit — `build_plans_lazy` + `generate_units` + `order_units` — against
/// an implication probe's pattern-sized `G^X_Q`, where a handful of rules
/// own a unit. That must cost one linear pass over Σ: under 5 ms a probe
/// at |Σ| = 4000 and within 12x of |Σ| = 500 (8x the rules). Building
/// Σ's whole producer→consumer graph to rank five units read ≈114 ms and
/// grew with |Σ|·cap. `order_units` alone on `GΣ` (4 000 per-rule batches
/// of 57 k pivots at 4000) must stay as linear and under 5 ms (≈1.4 ms
/// quiet on a 2-core host; the headroom is for host load): ordering units
/// one by one along their pivots' balls read ≈19 ms. Plans and units
/// on `GΣ` at |Σ| = 4000 (`build_plans_lazy` and `generate_units`) must
/// stay under `SETUP_BOUND`, 1.5x the quiet best-of-nine reading; a
/// per-step-`Vec` plan builder and a pivot filter that tested every
/// pivot-label node read 12.4–14.0 ms in a release build.
fn bench_unit_setup(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_core::{build_plans_lazy, generate_units, order_units, CanonicalGraph};
    use gfd_gen::{real_life_workload, Dataset};
    use std::time::{Duration, Instant};
    // 1.5x the quiet reading, 5.9 ms on a 2-core host (8–10 ms when the
    // host is loaded).
    const SETUP_BOUND: Duration = Duration::from_micros(8_850);

    // (per-probe set-up, `order_units` on `GΣ`, plans + units on `GΣ`),
    // best of nine each.
    let measure = |size: usize| -> (Duration, Duration, Duration) {
        let w = real_life_workload(Dataset::DBpedia, size, 42, None);
        let probes: Vec<CanonicalGraph> = w
            .probes
            .iter()
            .filter_map(|p| CanonicalGraph::for_phi(&p.phi).ok())
            .map(|(canon, _)| canon)
            .collect();
        assert!(!probes.is_empty(), "generator produced no consistent probe");
        let sweep = || {
            let start = Instant::now();
            let mut units_seen = 0usize;
            for canon in &probes {
                let (pivots, plans) = build_plans_lazy(&w.sigma, &canon.index);
                let mut units = generate_units(&w.sigma, canon, &pivots, true);
                order_units(&mut units, &w.sigma, canon, &pivots, None);
                units_seen += units.len();
                black_box((plans, units));
            }
            assert!(units_seen > 0, "no probe produced a unit");
            start.elapsed()
        };
        sweep(); // warm-up
        let best = (0..9).map(|_| sweep()).min().expect("nine sweeps");
        let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
        let setup = (0..10)
            .map(|_| {
                let start = Instant::now();
                let (pivots, plans) = build_plans_lazy(&w.sigma, &canon.index);
                let units = generate_units(&w.sigma, &canon, &pivots, true);
                let took = start.elapsed();
                black_box((plans, units));
                took
            })
            .skip(1)
            .min()
            .expect("nine set-ups");
        let (pivots, _) = build_plans_lazy(&w.sigma, &canon.index);
        let units = generate_units(&w.sigma, &canon, &pivots, true);
        let order = (0..10)
            .map(|_| {
                let mut units = units.clone();
                let start = Instant::now();
                order_units(&mut units, &w.sigma, &canon, &pivots, None);
                black_box(units);
                start.elapsed()
            })
            .skip(1)
            .min()
            .expect("nine orders");
        (best / probes.len() as u32, order, setup)
    };
    let (small, small_order, _) = measure(500);
    let (large, large_order, large_setup) = measure(4000);
    println!(
        "unit_setup/per_probe: sigma_500 {}  sigma_4000 {}  ({:.1}x)",
        fmt_duration(small),
        fmt_duration(large),
        large.as_secs_f64() / small.as_secs_f64().max(1e-9),
    );
    println!(
        "unit_setup/order_g_sigma: sigma_500 {}  sigma_4000 {}  ({:.1}x)",
        fmt_duration(small_order),
        fmt_duration(large_order),
        large_order.as_secs_f64() / small_order.as_secs_f64().max(1e-9),
    );
    guard!(
        large < Duration::from_millis(5),
        "per-probe unit set-up at |Σ| = 4000 must stay under 5 ms, got {large:?}"
    );
    guard!(
        large_order < Duration::from_millis(5),
        "order_units on GΣ at |Σ| = 4000 must stay under 5 ms, got {large_order:?}"
    );
    println!(
        "unit_setup/plans_units_g_sigma: sigma_4000 {}",
        fmt_duration(large_setup)
    );
    guard!(
        large_setup < SETUP_BOUND,
        "build_plans_lazy + generate_units on GΣ at |Σ| = 4000 must stay under {SETUP_BOUND:?}, got {large_setup:?}"
    );
    // 12x for 8x the rules, plus an absolute floor against timer noise on
    // the sub-millisecond small side.
    for (small, large) in [(small, large), (small_order, large_order)] {
        guard!(
            large <= small.mul_f64(12.0) + Duration::from_micros(200),
            "unit set-up must scale linearly in |Σ|: sigma_500={small:?} sigma_4000={large:?}"
        );
    }
}

/// Asserted guard for the scheduler's per-unit dispatch cost (DESIGN.md
/// §7): 1 M no-op units on one worker. Busy time is booked per stretch,
/// so a unit pays no clock read — wrapping each unit in a `BusyTimer`
/// (two `clock_gettime` system calls) read ≈ 460 ns a unit.
fn bench_dispatch_overhead(_c: &mut Criterion) {
    use gfd_runtime::{run_scheduler, SchedOptions, Task, WorkerCtx};
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    struct Noop;
    impl Task for Noop {
        type Unit = usize;
        type Worker = usize;
        fn worker(&self, _id: usize) -> usize {
            0
        }
        fn run_unit(&self, acc: &mut usize, unit: usize, _ctx: &WorkerCtx<'_, usize>) {
            *acc = black_box(*acc + unit);
        }
    }
    const UNITS: usize = 1_000_000;
    let (ns_per_unit, busy, wall) = (0..5)
        .map(|_| {
            let stop = AtomicBool::new(false);
            let start = Instant::now();
            let run = run_scheduler(
                &Noop,
                (0..UNITS).collect(),
                1,
                &stop,
                SchedOptions::default(),
            );
            let wall = start.elapsed();
            assert_eq!(run.units_executed, UNITS as u64);
            (
                wall.as_nanos() as f64 / UNITS as f64,
                run.worker_busy[0],
                wall,
            )
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("five runs");
    println!("dispatch_overhead: {ns_per_unit:.0} ns/unit  busy {busy:?} of wall {wall:?}");
    guard!(
        ns_per_unit <= 150.0,
        "dispatching a no-op unit must stay under 150 ns, got {ns_per_unit:.0}"
    );
    guard!(
        !busy.is_zero() && busy <= wall,
        "one worker's busy time is non-zero CPU time within the wall time: {busy:?} vs {wall:?}"
    );
}

/// Asserted guard for the model read-out (DESIGN.md §4): after `sat`, a
/// graph clone plus `populate_model`'s two linear passes over the
/// materialized slots — no hash map, no allocation per class. Under 10 ms
/// at |Σ| = 4000 (14.0 ms for the per-class `Vec` read-out, 8.8 ms now, on
/// one 2-core host), and linear: the relation itself holds 17x the keys of
/// |Σ| = 500 (8x the rules — cross-pattern matches grow with Σ), so the
/// bound is on the cost per key, which must not rise by more than half.
fn bench_model_readout(_c: &mut Criterion) {
    use gfd_core::{populate_model, run_reason, CanonicalGraph, Goal};
    use gfd_gen::{real_life_workload, Dataset};
    use std::time::{Duration, Instant};

    // (best of nine read-outs, keys in the relation)
    let readout = |size: usize| -> (Duration, usize) {
        let w = real_life_workload(Dataset::DBpedia, size, 42, None);
        let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
        let cfg = ReasonConfig::with_workers(1);
        let run = run_reason(&w.sigma, Goal::Sat, EqRel::new(), &canon, &cfg);
        let eq = run.engine.expect("Σ is satisfiable").eq;
        let best = (0..9).map(|_| {
            let mut eq = eq.clone();
            let start = Instant::now();
            let mut model = canon.graph.clone();
            populate_model(&mut model, &mut eq, w.sigma.fresh_spelled());
            black_box(model);
            start.elapsed()
        });
        (best.min().expect("nine read-outs"), eq.key_count())
    };
    let per_key = |(t, keys): (Duration, usize)| t.as_nanos() as f64 / keys as f64;
    let (small, large) = (readout(500), readout(4000));
    println!(
        "model_readout: sigma_500 {:?} ({} keys, {:.0} ns/key)  sigma_4000 {:?} ({} keys, {:.0} ns/key)",
        small.0, small.1, per_key(small), large.0, large.1, per_key(large),
    );
    guard!(
        large.0 <= Duration::from_millis(10),
        "model read-out at |Σ| = 4000 must stay under 10 ms, got {:?}",
        large.0
    );
    guard!(
        per_key(large) <= 1.5 * per_key(small),
        "model read-out must stay linear in the keys read: {small:?} vs {large:?}"
    );
}

/// Asserted count guard for detection's premise pushdown (DESIGN.md §3):
/// on a hub workload `detect` is lent exactly the `(rule, match)` pairs
/// whose premise holds — counted here the slow way, every match
/// enumerated and the premise evaluated at the leaf — and those are at
/// most 1 % of the matches of the rules' patterns. Counts, no timing: a
/// change that empties the premise schedule fails here instead of merely
/// getting slower.
fn bench_premise_pushdown(_c: &mut Criterion) {
    use gfd_core::validate::premise_holds;
    use gfd_detect::{detect, DetectConfig};
    use gfd_gen::{hub_workload, HubGenConfig};
    use std::ops::ControlFlow;

    let w = hub_workload(&HubGenConfig {
        nodes: 4_000,
        hubs: 16,
        hub_degree: 96,
        rules: 6,
        seed: 42,
        ..HubGenConfig::default()
    });
    let index = LabelIndex::build(&w.graph);
    let (mut enumerated, mut on_premise) = (0u64, 0u64);
    for (_, dep) in w.sigma.iter() {
        gfd_match::for_each_match(&w.graph, &index, &dep.pattern, |m| {
            enumerated += 1;
            on_premise += u64::from(premise_holds(&w.graph, dep, m));
            ControlFlow::Continue(())
        });
    }
    let lent = detect(&w.graph, &w.sigma, &DetectConfig::with_workers(1))
        .metrics
        .matches;
    println!(
        "premise_pushdown: {enumerated} pattern matches, {on_premise} on-premise, {lent} lent"
    );
    guard!(lent == on_premise, "detect is lent the on-premise matches");
    guard!(
        0 < lent && 100 * lent <= enumerated,
        "the premise must cut the hub's {enumerated} matches to ≤ 1 %, got {lent}"
    );
}

/// Asserted guard for shared searches (DESIGN.md §7): rules with one
/// pattern share one search, so on the 50k hub `detect` with six
/// same-pattern rules costs at most 2.5× `detect` with one of them (best
/// of nine, one worker). A search per rule read ≈ 4× (diamonds 48.6 /
/// 12.5 ms, chains 40.1 / 9.9 ms); one per group reads 1.47× and 1.12×.
fn bench_shared_pattern(_c: &mut Criterion) {
    use gfd_core::DepSet;
    use gfd_detect::{detect, DetectConfig};
    use gfd_gen::{hub_workload, HubGenConfig};
    use std::time::{Duration, Instant};

    let w = hub_workload(&HubGenConfig {
        nodes: 50_000,
        hubs: 64,
        hub_degree: 192,
        rules: 12,
        seed: 42,
        ..HubGenConfig::default()
    });
    let best = |sigma: &DepSet| -> Duration {
        let config = DetectConfig::with_workers(1);
        (0..10)
            .map(|_| {
                let start = Instant::now();
                black_box(detect(&w.graph, sigma, &config));
                start.elapsed()
            })
            .skip(1)
            .min()
            .expect("nine runs")
    };
    // The generator alternates diamonds (even ids) and chains (odd ids).
    for (shape, first) in [("diamonds", 0), ("chains", 1)] {
        let six: Vec<_> = w
            .sigma
            .iter()
            .skip(first)
            .step_by(2)
            .map(|(_, d)| d.clone())
            .collect();
        assert_eq!(six.len(), 6);
        let one = best(&DepSet::from_vec(six[..1].to_vec()));
        let all = best(&DepSet::from_vec(six));
        let ratio = all.as_secs_f64() / one.as_secs_f64();
        println!("shared_pattern/{shape}: one rule {one:?}  six rules {all:?}  ({ratio:.2}x)");
        guard!(
            ratio <= 2.5,
            "six {shape} sharing one pattern must cost ≤ 2.5x one of them, got {ratio:.2}x"
        );
    }
}

/// A benchmark group: a function of the harness.
type Group = fn(&mut Criterion);

fn main() {
    let mut c = Criterion::default();
    let groups: [(&str, Group); 12] = [
        ("eq_rel", bench_eq_rel),
        ("structures", bench_structures),
        ("matching", bench_matching),
        ("literal_interning", bench_literal_interning),
        ("intersect_crossover", bench_intersect_crossover),
        ("scheduler", bench_scheduler),
        ("trace_overhead", bench_trace_overhead),
        ("unit_setup", bench_unit_setup),
        ("dispatch_overhead", bench_dispatch_overhead),
        ("model_readout", bench_model_readout),
        ("premise_pushdown", bench_premise_pushdown),
        ("shared_pattern", bench_shared_pattern),
    ];
    for (name, group) in groups {
        // A failed fixture check ends its own group, not the run.
        if catch_unwind(AssertUnwindSafe(|| group(&mut c))).is_err() {
            TRIPS.lock().unwrap().push(format!("{name} panicked"));
        }
    }
    let trips = TRIPS.lock().unwrap();
    if !trips.is_empty() {
        eprintln!("{} guard(s) tripped:", trips.len());
        for trip in trips.iter() {
            eprintln!("  {trip}");
        }
        std::process::exit(1);
    }
}
