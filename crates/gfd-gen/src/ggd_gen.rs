//! Seeded, reproducible GGD workload generation.
//!
//! Generating rules have no finite fixpoint in general (`person → CREATE
//! person` chases forever), so random generation alone would produce
//! workloads that only ever end by budget exhaustion. This generator
//! builds **terminating-by-construction** chains instead: node labels
//! are stratified into tiers `tier0 < tier1 < … < tierD`, and every
//! generating rule's premise sits strictly below the tier of the nodes
//! it creates. Generation therefore advances a well-founded rank and the
//! chase reaches a true fixpoint, with the number of rounds (and the
//! amount of per-round scan work the scheduler sees) controlled by the
//! chain depth and per-tier fan-out — the workload behind the paper
//! bench's `exp8_ggd_chase` rows and gfdbench's `chase_ggd`.
//!
//! Presets:
//!
//! * [`ggd_chain_workload`] — generation-heavy: tiered GGDs plus a seed
//!   literal rule, satisfiable, fixpoint after ~`depth` topology rounds;
//! * [`mixed_ggd_workload`] — the chain plus benign literal riders that
//!   fire off the generated attributes (mixed GFD+GGD reasoning);
//! * [`ggd_conflict_workload`] — the chain plus a denial on the final
//!   tier's generated attribute: unsatisfiable, discovered only after
//!   the chase has generated its way down the whole chain.

use crate::gfd_gen::conflicting_value;
use gfd_core::{DepSet, Dependency, GenerateConsequence, Literal};
use gfd_graph::{Pattern, Value, VarId, Vocab};
use rand::prelude::*;

/// Knobs of the tiered GGD generator.
#[derive(Clone, Debug)]
pub struct GgdGenConfig {
    /// Chain depth `D`: tiers `0..=D`; generating rules exist for tiers
    /// `0..D`. Bounds the number of topology rounds.
    pub chain_depth: usize,
    /// Generating rules per tier (distinct rules over the same tier
    /// label multiply the firings per node).
    pub gen_per_tier: usize,
    /// Maximum fresh nodes one firing creates (actual fan-out is seeded
    /// per rule in `1..=fanout`).
    pub fanout: usize,
    /// Literal rider rules consuming the generated attributes (0 for the
    /// generation-only preset).
    pub literal_rules: usize,
    /// RNG seed; generation is deterministic per seed.
    pub seed: u64,
}

impl Default for GgdGenConfig {
    fn default() -> Self {
        GgdGenConfig {
            chain_depth: 3,
            gen_per_tier: 2,
            fanout: 2,
            literal_rules: 4,
            seed: 42,
        }
    }
}

fn tier_pattern(vocab: &mut Vocab, tier: usize) -> Pattern {
    let mut p = Pattern::new();
    p.add_node(vocab.label(&format!("tier{tier}")), "x");
    p
}

/// The attribute every tier-`i` node is driven to: `a{i} = i`.
fn tier_attr(vocab: &mut Vocab, tier: usize) -> gfd_graph::AttrId {
    vocab.attr(&format!("a{tier}"))
}

/// Build the tiered generating rules only (no riders, no conflicts):
/// a seed literal rule `tier0: ∅ → x.a0 = 0` plus, per tier `i < D` and
/// rule slot `j`, a GGD
///
/// ```text
/// tier{i}: x.a{i} = i  →  CREATE y₀..y_f : tier{i+1},
///                          x -gen-> y_k,  y_k.a{i+1} = i+1
/// ```
pub fn ggd_chain_workload(cfg: &GgdGenConfig, vocab: &mut Vocab) -> DepSet {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut deps = DepSet::new();
    let depth = cfg.chain_depth.max(1);
    let gen_label = vocab.label("gen");

    // Seed: every tier0 node gets a0 = 0, unlocking the first tier of
    // generating premises.
    let a0 = tier_attr(vocab, 0);
    deps.push(Dependency::new(
        "seed0",
        tier_pattern(vocab, 0),
        vec![],
        vec![Literal::eq_const(VarId::new(0), a0, 0i64)],
    ));

    for tier in 0..depth {
        let premise_attr = tier_attr(vocab, tier);
        let target_attr = tier_attr(vocab, tier + 1);
        let target_label = vocab.label(&format!("tier{}", tier + 1));
        for j in 0..cfg.gen_per_tier.max(1) {
            let pattern = tier_pattern(vocab, tier);
            let x = VarId::new(0);
            let mut gen = GenerateConsequence::over(&pattern);
            let fan = rng.random_range(1..=cfg.fanout.max(1));
            for k in 0..fan {
                let y = gen.add_fresh(target_label, format!("y{k}"));
                gen.add_edge(x, gen_label, y);
                gen.push_attr(Literal::eq_const(y, target_attr, (tier + 1) as i64));
            }
            deps.push(Dependency::new(
                format!("gen_t{tier}_{j}"),
                pattern,
                vec![Literal::eq_const(x, premise_attr, tier as i64)],
                gen,
            ));
        }
    }
    deps
}

/// The chain plus benign literal riders: GFDs whose premise consumes a
/// generated attribute (`x.a{t} = t → x.b{r} = t`), so literal
/// enforcement and generation interleave across rounds. Satisfiable.
pub fn mixed_ggd_workload(cfg: &GgdGenConfig, vocab: &mut Vocab) -> DepSet {
    let mut deps = ggd_chain_workload(cfg, vocab);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xB0B);
    let depth = cfg.chain_depth.max(1);
    for r in 0..cfg.literal_rules {
        let tier = rng.random_range(0..=depth);
        let premise_attr = tier_attr(vocab, tier);
        let out_attr = vocab.attr(&format!("b{}", r % 3));
        let x = VarId::new(0);
        deps.push(Dependency::new(
            format!("rider{r}"),
            tier_pattern(vocab, tier),
            vec![Literal::eq_const(x, premise_attr, tier as i64)],
            vec![Literal::eq_const(x, out_attr, tier as i64)],
        ));
    }
    deps
}

/// The chain made adversarial for the chase's **commit order**: every
/// tier gains a clique of same-key literal riders (each writes the same
/// constant to the one shared attribute of `x`, so the workload stays
/// satisfiable while firings of different rules on a node write one
/// key), and every generated `gen` edge gains a cross-node merge rider
/// `x.shared = y.shared` whose sibling matches all write the parent's
/// key. Combined with `gen_per_tier > 1` (sibling generators writing the
/// same premise node's adjacency), almost every round's firing set
/// overlaps — the case where committing a round in any order but the
/// serial one could change the fixpoint.
pub fn ggd_overlap_workload(cfg: &GgdGenConfig, vocab: &mut Vocab) -> DepSet {
    let mut deps = ggd_chain_workload(cfg, vocab);
    let depth = cfg.chain_depth.max(1);
    let shared = vocab.attr("shared");
    let gen_label = vocab.label("gen");
    let x = VarId::new(0);
    for tier in 0..=depth {
        let premise_attr = tier_attr(vocab, tier);
        for j in 0..cfg.literal_rules.max(2) {
            deps.push(Dependency::new(
                format!("overlap_t{tier}_{j}"),
                tier_pattern(vocab, tier),
                vec![Literal::eq_const(x, premise_attr, tier as i64)],
                vec![Literal::eq_const(x, shared, 1i64)],
            ));
        }
    }
    for tier in 0..depth {
        let src = vocab.label(&format!("tier{tier}"));
        let dst = vocab.label(&format!("tier{}", tier + 1));
        let mut p = Pattern::new();
        let px = p.add_node(src, "x");
        let py = p.add_node(dst, "y");
        p.add_edge(px, gen_label, py);
        deps.push(Dependency::new(
            format!("link_t{tier}"),
            p,
            vec![],
            vec![Literal::eq_attr(px, shared, py, shared)],
        ));
    }
    deps
}

/// The chain plus a denial on the final tier: every generated
/// `tier{D}` node carries `a{D} = D`, and the injected rule forces a
/// different constant onto the same attribute — unsatisfiable, but only
/// discoverable after the chase has generated all the way down.
pub fn ggd_conflict_workload(cfg: &GgdGenConfig, vocab: &mut Vocab) -> DepSet {
    let mut deps = ggd_chain_workload(cfg, vocab);
    let depth = cfg.chain_depth.max(1);
    let attr = tier_attr(vocab, depth);
    deps.push(Dependency::new(
        "deep_deny",
        tier_pattern(vocab, depth),
        vec![],
        vec![Literal::eq_const(
            VarId::new(0),
            attr,
            conflicting_value(attr),
        )],
    ));
    deps
}

/// A data graph hosting the chain's premises: `width` tier-0 nodes (the
/// detection-side counterpart — [`crate::graph_gen`] generates generic
/// graphs, this one lines up with the tier labels).
pub fn tier0_graph(width: usize, vocab: &mut Vocab) -> gfd_graph::Graph {
    let mut g = gfd_graph::Graph::new();
    let label = vocab.label("tier0");
    let a0 = tier_attr(vocab, 0);
    for _ in 0..width.max(1) {
        let n = g.add_node(label);
        g.set_attr(n, a0, Value::int(0));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_chase::{dep_sat, dep_sat_with_config, ChaseConfig};
    use gfd_core::SatOutcome;

    #[test]
    fn chain_workloads_are_reproducible() {
        let cfg = GgdGenConfig::default();
        let mut v1 = Vocab::new();
        let mut v2 = Vocab::new();
        let a = mixed_ggd_workload(&cfg, &mut v1);
        let b = mixed_ggd_workload(&cfg, &mut v2);
        assert_eq!(a.len(), b.len());
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.premise, y.premise);
            assert_eq!(x.is_generating(), y.is_generating());
        }
        // A different seed changes the shapes (fan-out draws).
        let c = mixed_ggd_workload(
            &GgdGenConfig {
                seed: 7,
                ..cfg.clone()
            },
            &mut Vocab::new(),
        );
        assert_eq!(a.len(), c.len());
    }

    #[test]
    fn chain_workloads_reach_a_fixpoint_and_are_satisfiable() {
        let mut vocab = Vocab::new();
        let cfg = GgdGenConfig {
            chain_depth: 3,
            gen_per_tier: 2,
            fanout: 2,
            literal_rules: 3,
            seed: 5,
        };
        let deps = mixed_ggd_workload(&cfg, &mut vocab);
        assert!(deps.has_generating());
        let r = dep_sat(&deps);
        assert!(r.is_satisfiable(), "tiered chains must terminate");
        assert!(r.stats.generated_nodes > 0);
        // The chain needs one topology round per tier at least.
        assert!(r.stats.rounds as usize >= cfg.chain_depth, "{:?}", r.stats);
    }

    #[test]
    fn conflict_workloads_are_unsat_after_generating() {
        let mut vocab = Vocab::new();
        let cfg = GgdGenConfig {
            chain_depth: 2,
            gen_per_tier: 1,
            fanout: 1,
            literal_rules: 0,
            seed: 9,
        };
        let deps = ggd_conflict_workload(&cfg, &mut vocab);
        let r = dep_sat(&deps);
        assert!(
            matches!(r.outcome, SatOutcome::Unsatisfiable(_)),
            "the deep denial must surface"
        );
        assert!(
            r.stats.generated_nodes > 0,
            "the conflict is only reachable through generation"
        );
    }

    #[test]
    fn overlap_workloads_reach_a_fixpoint_after_generating() {
        let mut vocab = Vocab::new();
        let cfg = GgdGenConfig {
            chain_depth: 3,
            gen_per_tier: 2,
            fanout: 2,
            literal_rules: 3,
            seed: 11,
        };
        let deps = ggd_overlap_workload(&cfg, &mut vocab);
        let r = dep_sat_with_config(
            &deps,
            &ChaseConfig {
                workers: 4,
                ..ChaseConfig::default()
            },
        );
        assert!(r.is_satisfiable(), "same-constant overlap riders agree");
        assert!(r.stats.generated_nodes > 0);
    }

    #[test]
    fn workload_scale_follows_the_knobs() {
        let mut vocab = Vocab::new();
        let small = ggd_chain_workload(
            &GgdGenConfig {
                chain_depth: 2,
                gen_per_tier: 1,
                fanout: 1,
                literal_rules: 0,
                seed: 1,
            },
            &mut vocab,
        );
        let mut vocab = Vocab::new();
        let big = ggd_chain_workload(
            &GgdGenConfig {
                chain_depth: 4,
                gen_per_tier: 3,
                fanout: 2,
                literal_rules: 0,
                seed: 1,
            },
            &mut vocab,
        );
        assert!(big.len() > small.len());
        let r_small = dep_sat(&small);
        let r_big = dep_sat_with_config(
            &big,
            &ChaseConfig {
                max_generated_nodes: 1_000_000,
                ..ChaseConfig::default()
            },
        );
        assert!(r_small.is_satisfiable() && r_big.is_satisfiable());
        assert!(r_big.stats.generated_nodes > r_small.stats.generated_nodes);
    }
}
