//! Allocation regression for the match kernel (DESIGN.md §15.5).
//!
//! A counting `#[global_allocator]` (per-thread counter, so the tests of
//! this binary can run in parallel) pins two claims:
//!
//! * a **warmed** [`HomSearch`] — run once, `reset`, run again — makes
//!   *zero* allocations in the second run, whichever intersection
//!   strategy the plan picked;
//! * a whole `detect` allocates `O(units + violations)`, not
//!   `O(matches of the rules' patterns)` — the matches the search walks
//!   through, of which detection is lent only those whose premise holds;
//! * enforcing a Sat run's matches allocates only when one of the
//!   engine's arenas grows — `O(log matches)`, not one or more per
//!   pending match;
//! * a graph row is not a heap object: building `GΣ`, reading a model
//!   out into it and chasing a GGD set allocate per *spilled* adjacency
//!   row (one with more than two entries) and per attribute column, not
//!   per node.
//!
//! `cargo test --release --test alloc_free_match -- --ignored --nocapture`
//! prints the full-size allocation scoreboard recorded in CHANGES.md.

use gfd::chase::{dep_sat_with_config, ChaseConfig};
use gfd::core::{
    build_plans_lazy, generate_units, populate_model, run_reason, sigma_union, CanonicalGraph,
    EnforceEngine, EqRel, Goal,
};
use gfd::detect::{detect, DetectConfig};
use gfd::gen::{
    hub_workload, mixed_ggd_workload, real_life_workload, Dataset, GgdGenConfig, HubGenConfig,
};
use gfd::graph::{GfdId, LabelIndex};
use gfd::matching::{count_matches, HomSearch, IntersectStrategy, MatchPlan, SearchLimits};
use gfd::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocations and
/// reallocations (per-thread, so parallel tests do not see each other).
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor
// re-enters the allocator; `try_with` ignores a thread tearing down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and count the allocations this thread made meanwhile.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Root `r -e-> h1, h2`; `h1 -f-> w_i` for `i < deg_f`, `h2 -g-> w_i` for
/// even `i < deg_g`; every node labelled `t`. The pair frequencies of `f`
/// and `g` are exactly the two degrees, which is what the planner reads
/// to pick the strategy of the diamond-closing step.
fn hub_graph(vocab: &mut Vocab, deg_f: usize, deg_g: usize) -> Graph {
    let (t, e) = (vocab.label("t"), vocab.label("e"));
    let (f, g_) = (vocab.label("f"), vocab.label("g"));
    let mut g = Graph::new();
    let r = g.add_node(t);
    let h1 = g.add_node(t);
    let h2 = g.add_node(t);
    g.add_edge(r, e, h1);
    g.add_edge(r, e, h2);
    for i in 0..deg_f.max(deg_g) {
        let w = g.add_node(t);
        if i < deg_f {
            g.add_edge(h1, f, w);
        }
        if i < deg_g && i % 2 == 0 {
            g.add_edge(h2, g_, w);
        }
    }
    g
}

/// Diamond `x -e-> y, x -e-> z, y -f-> w, z -g-> w`; chain `x -e-> y
/// -f-> w`; and the chain again with a wildcard first edge (the in-place
/// sort + dedup of a wildcard seed adjacency).
fn patterns(vocab: &mut Vocab) -> Vec<Pattern> {
    let (t, e) = (vocab.label("t"), vocab.label("e"));
    let (f, g) = (vocab.label("f"), vocab.label("g"));
    let mut diamond = Pattern::new();
    let x = diamond.add_node(t, "x");
    let y = diamond.add_node(t, "y");
    let z = diamond.add_node(t, "z");
    let w = diamond.add_node(t, "w");
    diamond.add_edge(x, e, y);
    diamond.add_edge(x, e, z);
    diamond.add_edge(y, f, w);
    diamond.add_edge(z, g, w);
    let chain = |first| {
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let w = p.add_node(t, "w");
        p.add_edge(x, first, y);
        p.add_edge(y, f, w);
        p
    };
    vec![diamond, chain(e), chain(LabelId::WILDCARD)]
}

fn count(search: &mut HomSearch<'_>) -> u64 {
    let mut n = 0;
    search.run(
        |m| {
            std::hint::black_box(m);
            n += 1;
            ControlFlow::Continue(())
        },
        SearchLimits::none(),
    );
    n
}

#[test]
fn warmed_search_allocates_nothing() {
    // (deg_f, 2·deg_g) → the strategy the stats plan gives the diamond's
    // closing step: both ≥ 64 → bitset; skew ≥ 8× → gallop; else merge.
    for (deg_f, deg_g, strategy) in [
        (400, 300, IntersectStrategy::Bitset),
        (60, 12, IntersectStrategy::Gallop),
        (60, 40, IntersectStrategy::TwoPointer),
    ] {
        let mut vocab = Vocab::new();
        let graph = hub_graph(&mut vocab, deg_f, deg_g);
        let index = LabelIndex::build(&graph);
        let patterns = patterns(&mut vocab);
        let diamond_plan = MatchPlan::build(&patterns[0], None, Some(&index));
        assert!(
            diamond_plan.steps().iter().any(|s| s.strategy == strategy),
            "degrees ({deg_f}, {deg_g}) were chosen to plan {strategy:?}"
        );

        for pattern in &patterns {
            // Whole-graph search: run, reset, run again.
            let plan = MatchPlan::build(pattern, None, Some(&index));
            let mut search = HomSearch::new(&graph, &index, pattern, &plan);
            let cold = count(&mut search);
            assert!(cold > 0, "{strategy:?}: the pattern must match");
            search.reset(&[]);
            let (warm, allocs) = allocations_of(|| count(&mut search));
            assert_eq!(warm, cold);
            assert_eq!(allocs, 0, "{strategy:?}: warmed whole-graph run");

            // Pivoted, the way a detection unit drives it: one search,
            // `reset` per pivot of the batch.
            let pivot = VarId::new(0);
            let plan = MatchPlan::build(pattern, Some(pivot), Some(&index));
            let mut search = HomSearch::new(&graph, &index, pattern, &plan);
            let sweep = |search: &mut HomSearch<'_>| {
                let mut n = 0;
                for z in graph.nodes() {
                    search.reset(&[z]);
                    n += count(search);
                }
                n
            };
            let pivoted = sweep(&mut search);
            assert_eq!(pivoted, cold, "pivots partition the match set");
            let (again, allocs) = allocations_of(|| sweep(&mut search));
            assert_eq!(again, cold);
            assert_eq!(allocs, 0, "{strategy:?}: warmed pivot sweep");
        }
    }
}

fn hub(nodes: usize, hubs: usize, hub_degree: usize, rules: usize) -> (Graph, DepSet) {
    let w = hub_workload(&HubGenConfig {
        nodes,
        hubs,
        hub_degree,
        rules,
        seed: 42,
        ..HubGenConfig::default()
    });
    (w.graph, w.sigma)
}

/// Matches of the rules' patterns in `graph`, premise or no premise: the
/// size of the space a detection searches (its report counts only the
/// matches lent to it, all of them on-premise).
fn pattern_matches(graph: &Graph, sigma: &DepSet) -> u64 {
    let index = LabelIndex::build(graph);
    sigma
        .iter()
        .map(|(_, dep)| count_matches(graph, &index, &dep.pattern) as u64)
        .sum()
}

#[test]
fn detect_allocates_per_unit_not_per_match() {
    let (graph, sigma) = hub(4_000, 16, 96, 6);
    let matches = pattern_matches(&graph, &sigma);
    assert!(matches > 50_000, "match-bound workload, got {matches}");
    // One worker runs inline on this thread, so the per-thread counter
    // sees the whole operation.
    let config = DetectConfig::with_workers(1);
    let (report, allocs) = allocations_of(|| detect(&graph, &sigma, &config));
    assert!(report.total_matches() > 0, "some premise must hold");
    assert!(
        allocs < matches / 10,
        "{allocs} allocations for {matches} matches"
    );
}

#[test]
fn reasoning_unit_costs_no_allocation_of_its_own() {
    // Without component pruning the same Σ searches several times the
    // pivots, in about as many units (each rule's pivots are one batch),
    // and every extra pivot matches nothing (its component cannot host
    // the pattern). Such a pivot must be free: the worker resets its one
    // search for it. A search built per pivot reads ≈ 6 allocations for
    // each of them.
    let w = real_life_workload(Dataset::DBpedia, 400, 42, None);
    let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
    let (pivot_vars, _) = build_plans_lazy(&w.sigma, &canon.index);
    let run = |prune_components| {
        let pivots: usize = generate_units(&w.sigma, &canon, &pivot_vars, prune_components)
            .iter()
            .map(|u| u.prefix.starts().len())
            .sum();
        let config = ReasonConfig {
            prune_components,
            ..ReasonConfig::with_workers(1)
        };
        let (result, allocs) = allocations_of(|| sat_with_config(&w.sigma, &config));
        assert!(result.is_satisfiable());
        (pivots as u64, allocs)
    };
    let (pivots, allocs) = run(true);
    let (more_pivots, more_allocs) = run(false);
    println!(
        "pruned: {pivots} pivots, {allocs} allocations; unpruned: {more_pivots}, {more_allocs}"
    );
    assert!(more_pivots > 2 * pivots, "{pivots} → {more_pivots} pivots");
    assert!(
        more_allocs.saturating_sub(allocs) < more_pivots - pivots,
        "{} extra allocations for {} extra pivots",
        more_allocs.saturating_sub(allocs),
        more_pivots - pivots
    );
}

/// Every match of every rule's pattern in `GΣ`, as `(rule, match)` — the
/// matches a Sat run enforces, in rule order instead of unit order (Σ is
/// satisfiable, so any order reaches the same fixpoint).
fn sigma_matches(sigma: &DepSet, canon: &CanonicalGraph) -> Vec<(GfdId, Vec<NodeId>)> {
    let mut out = Vec::new();
    for (rule, dep) in sigma.iter() {
        let plan = MatchPlan::build(&dep.pattern, None, Some(&canon.index));
        let mut search = HomSearch::new(&canon.graph, &canon.index, &dep.pattern, &plan);
        search.run(
            |m| {
                out.push((rule, m.to_vec()));
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
    }
    out
}

#[test]
fn enforcement_allocates_per_arena_growth_not_per_match() {
    let w = real_life_workload(Dataset::DBpedia, 400, 42, None);
    let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
    let matches = sigma_matches(&w.sigma, &canon);
    let replay = || {
        let mut engine = EnforceEngine::new();
        for (rule, m) in &matches {
            engine
                .process_match(&w.sigma, *rule, m)
                .expect("Σ is satisfiable");
        }
        engine
    };
    // The first replay warms what the process keeps (the value table).
    let cold = replay();
    let (warm, allocs) = allocations_of(replay);
    assert_eq!(warm.stats, cold.stats);
    // Each of the engine's dozen growable buffers (relation columns, the
    // key index's per-node heads and per-slot links, watcher arena,
    // pending arena, scratch, log) doubles at most once per bit of its
    // final length.
    let bits = u64::from(usize::BITS - warm.eq.key_count().max(matches.len()).leading_zeros());
    println!(
        "{} matches, {} pending, {} keys: {allocs} allocations",
        matches.len(),
        warm.stats.pending_registered,
        warm.eq.key_count()
    );
    assert!(warm.stats.pending_registered > 500, "{:?}", warm.stats);
    assert!(allocs <= 12 * bits, "{allocs} allocations, {bits} bits");
}

/// Bits in `n`: how many times a buffer that doubles grows on its way to
/// `n` entries.
fn bits(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

/// `(spilled rows, allocations they cost)` over both directions of every
/// node: a row of at most two entries is inline and costs nothing, a
/// longer one moved to a `Vec` of four and doubled from there.
fn spilled_rows(graph: &Graph) -> (usize, u64) {
    let (mut rows, mut allocs) = (0, 0);
    for v in graph.nodes() {
        for len in [graph.out_edges(v).len(), graph.in_edges(v).len()] {
            if len > 2 {
                rows += 1;
                allocs += 1 + bits((len - 1) / 4);
            }
        }
    }
    (rows, allocs)
}

/// Attribute columns `graph` holds: distinct attributes set on any node.
fn attribute_columns(graph: &Graph) -> usize {
    let mut attrs: Vec<AttrId> = graph
        .nodes()
        .flat_map(|v| graph.attrs(v))
        .map(|(a, _)| a)
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs.len()
}

#[test]
fn sigma_graph_allocates_per_spilled_row_not_per_node() {
    let w = real_life_workload(Dataset::DBpedia, 1000, 42, None);
    let ((graph, _), allocs) = allocations_of(|| sigma_union(&w.sigma));
    let (spilled, row_allocs) = spilled_rows(&graph);
    println!(
        "GΣ(DBpedia 1000): {} nodes, {spilled} spilled rows: {allocs} allocations",
        graph.node_count()
    );
    // Bound: O(spilled rows). Besides them only the label vector and the
    // two row tables grow (doubling to the node count) and the offsets
    // are sized once.
    let bound = row_allocs + 3 * bits(graph.node_count()) + 1;
    assert!(
        allocs <= bound,
        "{allocs} allocations, {row_allocs} for spilled rows, bound {bound}"
    );
}

#[test]
fn readout_allocates_per_attribute_column_not_per_node() {
    let w = real_life_workload(Dataset::DBpedia, 1000, 42, None);
    let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
    let run = run_reason(
        &w.sigma,
        Goal::Sat,
        EqRel::new(),
        &canon,
        &ReasonConfig::with_workers(1),
    );
    let eq = run.engine.expect("DBpedia-1000 is satisfiable").eq;
    let spelled = w.sigma.fresh_spelled();
    // The first read-out interns the fresh names in the process-wide
    // value table; the one counted finds them there.
    populate_model(&mut canon.graph.clone(), &mut eq.clone(), spelled);
    let (mut model, mut eq) = (canon.graph.clone(), eq);
    let keys = eq.key_count();
    let ((), allocs) = allocations_of(|| populate_model(&mut model, &mut eq, spelled));
    let columns = attribute_columns(&model) as u64;
    println!(
        "read-out(DBpedia 1000): {} nodes, {} attributes in {columns} columns, {keys} keys: {allocs} allocations",
        model.node_count(),
        model.attr_count()
    );
    // Bound: O(attribute columns), each doubling on its way to the node
    // count, plus the read-out's own key-indexed buffers.
    let bound = columns * bits(model.node_count()) + 8 * bits(keys);
    assert!(allocs <= bound, "{allocs} allocations, bound {bound}");
}

#[test]
fn chase_allocates_per_spilled_row_not_per_generated_node() {
    let mut vocab = Vocab::new();
    let config = GgdGenConfig {
        chain_depth: 3,
        gen_per_tier: 3,
        fanout: 3,
        literal_rules: 8,
        seed: 1,
    };
    let deps = mixed_ggd_workload(&config, &mut vocab);
    let chase = || dep_sat_with_config(&deps, &ChaseConfig::with_workers(1));
    let _ = chase();
    let (r, allocs) = allocations_of(chase);
    let SatOutcome::Satisfiable(model) = &r.outcome else {
        panic!("{:?}", r.outcome)
    };
    let (spilled, row_allocs) = spilled_rows(model);
    let columns = attribute_columns(model) as u64;
    let (rules, rounds) = (deps.len() as u64, r.stats.rounds);
    println!(
        "chase: {} generated nodes, {spilled} spilled rows, {columns} columns, {rules} rules × {rounds} rounds: {allocs} allocations",
        r.stats.generated_nodes
    );
    assert!(r.stats.generated_nodes > 2_000, "{:?}", r.stats);
    // Bound: O(spilled rows + attribute columns), plus the per-(rule,
    // round) match tables and scan units, none of them per node.
    let bound = row_allocs + columns * bits(model.node_count()) + 16 * rules * rounds;
    assert!(allocs <= bound, "{allocs} allocations, bound {bound}");
}

/// The full-size numbers of CHANGES.md / ROADMAP (parents: 6 570 079
/// allocations for `detect`; 1 120 032, later 359 183, for one
/// `sat_with_config`).
#[test]
#[ignore = "full-size scoreboard; run with --release -- --ignored --nocapture"]
fn allocation_scoreboard() {
    let (graph, sigma) = hub(50_000, 64, 192, 12);
    let config = DetectConfig::with_workers(1);
    let (report, detect_allocs) = allocations_of(|| detect(&graph, &sigma, &config));
    println!(
        "detect(hub 50k): {detect_allocs} allocations, {} pattern matches, {} lent on-premise, {} violations",
        pattern_matches(&graph, &sigma),
        report.total_matches(),
        report.violations.len()
    );
    assert!(detect_allocs <= 10_000);

    // gfdbench's `sat_dbpedia` op, warmed as its timed loop is (the
    // first run interns Σ's fresh names process-wide).
    let w = real_life_workload(Dataset::DBpedia, 4000, 42, None);
    let config = ReasonConfig::with_workers(1);
    let _ = sat_with_config(&w.sigma, &config);
    let (result, sat_allocs) = allocations_of(|| sat_with_config(&w.sigma, &config));
    println!(
        "sat_with_config(DBpedia 4000): {sat_allocs} allocations, satisfiable = {}",
        result.is_satisfiable()
    );
    // No allocation per pending match, class, watcher or canonical node
    // is left: what remains is per unit, per spilled row, and the
    // arenas' and columns' growth.
    assert!(sat_allocs <= 40_000);

    // gfdbench's `chase_ggd` op at `--seed 42`: the rule set its band
    // draws first (generator seed 42·φ + 1272; 49 825 generated nodes).
    let mut vocab = Vocab::new();
    let deps = mixed_ggd_workload(
        &GgdGenConfig {
            chain_depth: 5,
            gen_per_tier: 3,
            fanout: 3,
            literal_rules: 8,
            seed: 42u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1272),
        },
        &mut vocab,
    );
    let chase = || dep_sat_with_config(&deps, &ChaseConfig::with_workers(1));
    let _ = chase();
    let (r, chase_allocs) = allocations_of(chase);
    println!(
        "dep_sat_with_config(chase_ggd seed 42): {chase_allocs} allocations, {} generated nodes",
        r.stats.generated_nodes
    );
    assert_eq!(r.stats.generated_nodes, 49_825);
    assert!(chase_allocs <= 30_000);
}
