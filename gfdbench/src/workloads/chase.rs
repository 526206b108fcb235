//! `chase_ggd`: satisfiability of a mixed GFD+GGD rule set by the
//! generating chase in `gfd-chase` — scan rounds on the scheduler, a
//! parallel apply-planning pass, a serial commit walk.

use super::{match_probe, record_runtime};
use crate::harness::{ms_since, LibTrace, Recorder, Staged, Workload};
use gfd_chase::{
    dep_chase_with_config, dep_sat_with_config, ChaseConfig, ChaseStats, DepChaseOutcome,
    DepSatOutcome,
};
use gfd_core::{extract_model, Consequence, DepSet, EqRel};
use gfd_gen::{mixed_ggd_workload, GgdGenConfig};
use gfd_graph::{Graph, LabelIndex, VarId, Vocab};
use gfd_runtime::TraceSpec;
use std::ops::RangeInclusive;
use std::time::Instant;

/// Generator shape and the work band a rule set must fall in.
///
/// The tiered generator draws each generating rule's fan-out and each
/// rider's tier from its seed, and the chase multiplies fan-outs down
/// the chain: two seeds of one shape differ by up to 15× in generated
/// nodes and run time. A benchmark input must vary with `--seed` without
/// varying that much in cost, so rule sets are drawn until one lands in
/// a narrow band of the two quantities that drive the chase's work —
/// fresh nodes generated and rider firings — both of which follow in
/// closed form from the rules (see [`profile`]). The closed form is also
/// the known answer `generated_nodes` is checked against.
struct Shape {
    chain_depth: usize,
    gen_per_tier: usize,
    fanout: usize,
    literal_rules: usize,
    generated: RangeInclusive<u64>,
    rider_firings: RangeInclusive<u64>,
}

const FULL: Shape = Shape {
    chain_depth: 5,
    gen_per_tier: 3,
    fanout: 3,
    literal_rules: 8,
    generated: 48_000..=52_000,
    rider_firings: 43_000..=47_000,
};

const SMOKE: Shape = Shape {
    chain_depth: 3,
    gen_per_tier: 3,
    fanout: 3,
    literal_rules: 8,
    generated: 800..=1_600,
    rider_firings: 0..=u64::MAX,
};

/// Draws before giving up. The full-size band accepts about one draw in
/// 400 (seeds 0–199 needed a median of 263 and at most 2 219, ≈ 0.1 ms each).
const MAX_DRAWS: u64 = 100_000;

/// `(fresh nodes the chase generates, literal-rider firings)` for a
/// tiered rule set, in closed form.
///
/// `GΣ` holds one node per rule, labelled with the rule's tier. Only
/// tier-0 nodes carry the seeded attribute, so only they start chains:
/// with `r0` tier-0 roots and `F_t` the summed fan-out of tier `t`'s
/// generating rules, tier `t+1` receives `n_{t+1} = n_t · F_t` nodes
/// (`n_0 = r0`), every rule of a tier firing once per node under the
/// chase's round-snapshot semantics. A rider on tier `t` fires `n_t`
/// times.
fn profile(deps: &DepSet, vocab: &Vocab, chain_depth: usize) -> (u64, u64) {
    let mut roots0 = 0u64;
    let mut fan = vec![0u64; chain_depth + 1];
    let mut riders = vec![0u64; chain_depth + 1];
    for (_, dep) in deps.iter() {
        let label = vocab.label_name(dep.pattern.label(VarId::new(0)));
        let tier: usize = label
            .strip_prefix("tier")
            .and_then(|t| t.parse().ok())
            .expect("tiered generator labels patterns tier<N>");
        roots0 += u64::from(tier == 0);
        match &dep.consequence {
            Consequence::Generate(gen) => fan[tier] += gen.fresh_count() as u64,
            Consequence::Literals(_) if !dep.premise.is_empty() => riders[tier] += 1,
            Consequence::Literals(_) => {}
        }
    }
    let mut n = roots0;
    let (mut generated, mut firings) = (0, riders[0] * n);
    for tier in 0..chain_depth {
        n *= fan[tier];
        generated += n;
        firings += riders[tier + 1] * n;
    }
    (generated, firings)
}

/// The first rule set in `shape`'s band along the draw sequence `seed`
/// selects, with its vocabulary and its closed-form generated-node count.
fn draw_rules(seed: u64, shape: &Shape) -> (DepSet, Vocab, u64) {
    for k in 0..MAX_DRAWS {
        let mut vocab = Vocab::new();
        let deps = mixed_ggd_workload(
            &GgdGenConfig {
                chain_depth: shape.chain_depth,
                gen_per_tier: shape.gen_per_tier,
                fanout: shape.fanout,
                literal_rules: shape.literal_rules,
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k),
            },
            &mut vocab,
        );
        let (generated, firings) = profile(&deps, &vocab, shape.chain_depth);
        if shape.generated.contains(&generated) && shape.rider_firings.contains(&firings) {
            return (deps, vocab, generated);
        }
    }
    panic!("no rule set in band within {MAX_DRAWS} draws for seed {seed}");
}

/// What a chase run is checked on. The model rides along so that it is
/// dropped by `check`, outside the timed region, on the fused and the
/// staged path alike.
pub struct ChaseOut {
    model: Option<Box<Graph>>,
    stats: ChaseStats,
}

/// `dep_sat_with_config(deps)` → fixpoint + model.
pub struct ChaseGgd {
    deps: DepSet,
    /// Closed-form count of nodes the chase must generate.
    expect_generated: u64,
    /// Rounds of the first run; p-invariant, so every run must match.
    expect_rounds: Option<u64>,
    gen_ms: f64,
    n: usize,
    busy_p1: f64,
    /// The latest run's model, for the graph and matcher probes.
    model: Option<Box<Graph>>,
}

impl Workload for ChaseGgd {
    const NAME: &'static str = "chase_ggd";
    type Out = ChaseOut;

    fn setup(seed: u64, smoke: bool, n: usize) -> Self {
        let t = Instant::now();
        let (deps, _vocab, expect_generated) = draw_rules(seed, if smoke { &SMOKE } else { &FULL });
        ChaseGgd {
            deps,
            expect_generated,
            expect_rounds: None,
            gen_ms: ms_since(t),
            n,
            busy_p1: 0.0,
            model: None,
        }
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }

    fn op(&mut self, workers: usize) -> ChaseOut {
        let r = dep_sat_with_config(&self.deps, &ChaseConfig::with_workers(workers));
        ChaseOut {
            model: match r.outcome {
                DepSatOutcome::Satisfiable(model) => Some(model),
                _ => None,
            },
            stats: r.stats,
        }
    }

    fn check(&mut self, _workers: usize, out: ChaseOut) -> bool {
        let ok = out.model.is_some()
            && out.stats.generated_nodes == self.expect_generated
            && *self.expect_rounds.get_or_insert(out.stats.rounds) == out.stats.rounds;
        // Keep the latest model for the graph and matcher probes.
        self.model = out.model.or(self.model.take());
        ok
    }

    fn finish(&mut self) -> bool {
        true
    }

    fn staged(&mut self, workers: usize, rec: &mut Recorder) -> (ChaseOut, Staged) {
        let cfg = ChaseConfig::with_workers(workers);
        let root = rec.begin_op("chase_ggd.op");
        // GΣ: the disjoint union of every premise pattern.
        let (canonical, _) = rec.spans.time("chase.canonical_graph", root, || {
            let mut g = Graph::new();
            for (_, dep) in self.deps.iter() {
                g.append_disjoint(&dep.pattern.to_graph());
            }
            g
        });
        let ((outcome, stats, metrics), _) = rec.spans.time("chase.dep_chase", root, || {
            dep_chase_with_config(&self.deps, canonical, EqRel::new(), &cfg)
        });
        let (model, _) = rec
            .spans
            .time("core.extract_model", root, || match outcome {
                DepChaseOutcome::Fixpoint { graph, mut eq } => {
                    Some(Box::new(extract_model(&graph, &mut eq)))
                }
                _ => None,
            });
        let wall_ms = rec.end_op(root);

        record_runtime(rec, workers, &metrics, &mut self.busy_p1);
        if workers == 1 {
            // The chase's commit order equals the serial order at every
            // worker count, so its counters are p-invariant; they are
            // read on the one-worker side all the same.
            rec.exact("chase.rounds", stats.rounds as f64);
            rec.exact("chase.premise_evals", stats.premise_evals as f64);
            rec.exact("chase.matches_enumerated", stats.matches_enumerated as f64);
            rec.exact("chase.generated_nodes", stats.generated_nodes as f64);
            rec.exact("chase.realization_checks", stats.realization_checks as f64);
            rec.exact("chase.apply_independent", stats.apply_independent as f64);
            rec.exact("chase.apply_conflicts", stats.apply_conflicts as f64);
            let applied = stats.apply_independent + stats.apply_conflicts;
            if applied > 0 {
                rec.exact(
                    "chase.conflict_share",
                    stats.apply_conflicts as f64 / applied as f64,
                );
            }
        } else {
            rec.sample("chase.scan_ms", stats.scan_time.as_secs_f64() * 1e3);
            rec.sample("chase.apply_ms", stats.apply_time.as_secs_f64() * 1e3);
        }
        (
            ChaseOut { model, stats },
            Staged {
                wall_ms,
                repeated_ms: 0.0,
            },
        )
    }

    fn library_traced(&mut self) -> LibTrace {
        let cfg = ChaseConfig {
            trace: TraceSpec::enabled(),
            ..ChaseConfig::with_workers(self.n)
        };
        let t = Instant::now();
        let r = dep_sat_with_config(&self.deps, &cfg);
        LibTrace {
            wall_ms: ms_since(t),
            events: r.metrics.trace.events.len() as u64,
            dropped: r.metrics.trace.dropped,
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        let Some(model) = &self.model else { return };
        rec.exact("graph.nodes", model.node_count() as f64);
        rec.exact("graph.edges", model.edge_count() as f64);
        let t = Instant::now();
        let index = LabelIndex::build(model);
        rec.sample("graph.freeze_ms", ms_since(t));
        match_probe(
            rec,
            model,
            &index,
            self.deps.iter().map(|(_, d)| &d.pattern),
        )
        .book(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed form is the chase's known answer: it must equal what
    /// the chase actually generates, and draws must land in the band.
    #[test]
    fn closed_form_matches_the_chase() {
        for seed in [1, 2, 3] {
            let (deps, _, expect) = draw_rules(seed, &SMOKE);
            assert!(SMOKE.generated.contains(&expect));
            let r = dep_sat_with_config(&deps, &ChaseConfig::with_workers(1));
            assert!(r.is_satisfiable());
            assert_eq!(r.stats.generated_nodes, expect, "seed {seed}");
        }
    }

    #[test]
    fn same_seed_same_rules() {
        let (a, _, ga) = draw_rules(9, &SMOKE);
        let (b, _, gb) = draw_rules(9, &SMOKE);
        assert_eq!(ga, gb);
        assert_eq!(a.len(), b.len());
        let names = |d: &DepSet| d.iter().map(|(_, r)| r.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
    }
}
