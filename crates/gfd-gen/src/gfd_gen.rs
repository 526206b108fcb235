//! Random GFD set generation (the paper's "GFD generator", §VII).
//!
//! The generator controls `|Σ|`, the maximum pattern size `k` and the
//! maximum literal count `l`. Base sets are **satisfiable by
//! construction**: every constant literal on attribute `A` uses the
//! canonical constant of `A`, and variable literals equate the *same*
//! attribute across variables — so all enforcements agree and the
//! assignment `A ↦ canonical(A)` is always a model. Unsatisfiability is
//! introduced explicitly by [`inject_direct_conflict`] /
//! [`inject_chain_conflict`] (the paper expands mined sets with up to 10
//! random GFDs for the satisfiability tests).

use crate::pattern_gen::{mutate_pattern, random_pattern, PatternGenConfig};
use crate::schema::Schema;
use gfd_core::{DepSet, Dependency, Literal};
use gfd_graph::{AttrId, Pattern, Value, VarId, Vocab};
use rand::prelude::*;

/// The canonical constant of attribute `A` — what satisfiable-by-
/// construction sets bind everywhere.
pub fn canonical_value(attr: AttrId) -> Value {
    Value::Int(attr.0 as i64)
}

/// A constant guaranteed different from [`canonical_value`], used to
/// inject conflicts.
pub fn conflicting_value(attr: AttrId) -> Value {
    Value::Int(-(attr.0 as i64) - 1)
}

/// Knobs for GFD set generation.
#[derive(Clone, Debug)]
pub struct GfdGenConfig {
    /// Number of GFDs (`|Σ|`, up to 10000 in the paper).
    pub count: usize,
    /// Maximum pattern node count (`k`, up to 10).
    pub k: usize,
    /// Maximum literal count per side (`l`, up to 5).
    pub l: usize,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
    /// Number of shared seed patterns; each GFD mutates one of them.
    /// Shared seeds create the cross-pattern matches that make reasoning
    /// interact (mined GFDs share frequent sub-patterns). 0 disables.
    pub seed_patterns: usize,
    /// Fraction of GFDs with an empty premise (`∅ → Y`), the cascade
    /// seeds.
    pub empty_premise_fraction: f64,
    /// Probability a literal is `x.A = y.A` rather than `x.A = c`.
    pub var_literal_prob: f64,
    /// Wildcard probability for pattern nodes.
    pub wildcard_prob: f64,
}

impl Default for GfdGenConfig {
    fn default() -> Self {
        GfdGenConfig {
            count: 100,
            k: 6,
            l: 5,
            seed: 42,
            seed_patterns: 16,
            empty_premise_fraction: 0.3,
            var_literal_prob: 0.35,
            wildcard_prob: 0.05,
        }
    }
}

fn random_literal(
    pattern: &Pattern,
    schema: &Schema,
    var_literal_prob: f64,
    rng: &mut impl Rng,
) -> Literal {
    let k = pattern.node_count();
    let x = VarId::new(rng.random_range(0..k));
    let attr = schema.sample_attr(rng);
    if k >= 2 && rng.random_bool(var_literal_prob) {
        let y = VarId::new(rng.random_range(0..k));
        Literal::eq_attr(x, attr, y, attr)
    } else {
        Literal::eq_const(x, attr, canonical_value(attr))
    }
}

/// Generate a satisfiable-by-construction set Σ.
pub fn generate_sigma(schema: &Schema, cfg: &GfdGenConfig) -> DepSet {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pat_cfg = PatternGenConfig {
        k: cfg.k.max(1),
        extra_edge_prob: 0.25,
        wildcard_prob: cfg.wildcard_prob,
    };
    // Seed patterns are a little smaller so mutation stays within k.
    let seed_cfg = PatternGenConfig {
        k: cfg.k.max(2).saturating_sub(1).max(1),
        ..pat_cfg.clone()
    };
    let seeds: Vec<Pattern> = (0..cfg.seed_patterns)
        .map(|_| random_pattern(schema, &seed_cfg, &mut rng))
        .collect();

    let mut gfds = Vec::with_capacity(cfg.count);
    for i in 0..cfg.count {
        let pattern = if seeds.is_empty() {
            random_pattern(schema, &pat_cfg, &mut rng)
        } else {
            let seed = &seeds[rng.random_range(0..seeds.len())];
            mutate_pattern(seed, schema, &mut rng)
        };
        let premise = if rng.random_bool(cfg.empty_premise_fraction) {
            Vec::new()
        } else {
            let n = rng.random_range(1..=cfg.l.max(1));
            (0..n)
                .map(|_| random_literal(&pattern, schema, cfg.var_literal_prob, &mut rng))
                .collect()
        };
        let n = rng.random_range(1..=cfg.l.max(1));
        let consequence: Vec<Literal> = (0..n)
            .map(|_| random_literal(&pattern, schema, cfg.var_literal_prob, &mut rng))
            .collect();
        gfds.push(Dependency::new(
            format!("gen{i}"),
            pattern,
            premise,
            consequence,
        ));
    }
    DepSet::from_vec(gfds)
}

/// Inject a pair of directly conflicting GFDs sharing one pattern:
/// `∅ → x.A = c` and `∅ → x.A = c'`. Makes Σ unsatisfiable, discovered
/// after a single cross-copy match.
pub fn inject_direct_conflict(sigma: &mut DepSet, schema: &Schema, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pattern = random_pattern(
        schema,
        &PatternGenConfig {
            k: 2,
            extra_edge_prob: 0.0,
            wildcard_prob: 0.0,
        },
        &mut rng,
    );
    let attr = schema.sample_attr(&mut rng);
    let x = VarId::new(0);
    sigma.push(Dependency::new(
        "conflict_a",
        pattern.clone(),
        vec![],
        vec![Literal::eq_const(x, attr, canonical_value(attr))],
    ));
    sigma.push(Dependency::new(
        "conflict_b",
        pattern,
        vec![],
        vec![Literal::eq_const(x, attr, conflicting_value(attr))],
    ));
}

/// Inject an Example-4-style conflict chain of the given depth: a seed
/// `∅ → x.A₀ = c₀`, propagation rules `x.Aᵢ₋₁ = cᵢ₋₁ → x.Aᵢ = cᵢ`, and a
/// final rule contradicting `A₀`. All share one pattern, so cross-copy
/// matches drive the cascade; the conflict only surfaces after `depth`
/// pending re-checks.
pub fn inject_chain_conflict(sigma: &mut DepSet, schema: &Schema, depth: usize, seed: u64) {
    assert!(depth >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let pattern = random_pattern(
        schema,
        &PatternGenConfig {
            k: 2,
            extra_edge_prob: 0.0,
            wildcard_prob: 0.0,
        },
        &mut rng,
    );
    let x = VarId::new(0);
    let attrs: Vec<AttrId> = (0..depth).map(|_| schema.sample_attr(&mut rng)).collect();
    sigma.push(Dependency::new(
        "chain_seed",
        pattern.clone(),
        vec![],
        vec![Literal::eq_const(x, attrs[0], canonical_value(attrs[0]))],
    ));
    for i in 1..depth {
        sigma.push(Dependency::new(
            format!("chain_{i}"),
            pattern.clone(),
            vec![Literal::eq_const(
                x,
                attrs[i - 1],
                canonical_value(attrs[i - 1]),
            )],
            vec![Literal::eq_const(x, attrs[i], canonical_value(attrs[i]))],
        ));
    }
    sigma.push(Dependency::new(
        "chain_final",
        pattern,
        vec![Literal::eq_const(
            x,
            attrs[depth - 1],
            canonical_value(attrs[depth - 1]),
        )],
        vec![Literal::eq_const(x, attrs[0], conflicting_value(attrs[0]))],
    ));
}

/// Build a probe GFD that **is** implied by Σ: take a random ϕ ∈ Σ,
/// extend its pattern (a supergraph still hosts ϕ's identity match) and
/// keep its `X → Y`.
pub fn implied_probe(sigma: &DepSet, schema: &Schema, seed: u64) -> Option<Dependency> {
    if sigma.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let base = &sigma.as_slice()[rng.random_range(0..sigma.len())];
    let pattern = mutate_pattern(&base.pattern, schema, &mut rng);
    Some(Dependency::new(
        format!("implied_from_{}", base.name),
        pattern,
        base.premise.clone(),
        base.consequence.clone(),
    ))
}

/// Build a probe GFD that is **not** implied by a satisfiable-by-
/// construction Σ: its consequence uses a fresh attribute no rule can
/// derive.
pub fn not_implied_probe(
    sigma: &DepSet,
    schema: &Schema,
    vocab: &mut Vocab,
    seed: u64,
) -> Dependency {
    let mut rng = StdRng::seed_from_u64(seed);
    let pattern = if sigma.is_empty() {
        random_pattern(
            schema,
            &PatternGenConfig {
                k: 3,
                extra_edge_prob: 0.2,
                wildcard_prob: 0.0,
            },
            &mut rng,
        )
    } else {
        let base = &sigma.as_slice()[rng.random_range(0..sigma.len())];
        mutate_pattern(&base.pattern, schema, &mut rng)
    };
    let fresh = vocab.attr(&format!("fresh_probe_{seed}"));
    let premise = if pattern.node_count() > 0 && rng.random_bool(0.5) {
        vec![random_literal(&pattern, schema, 0.0, &mut rng)]
    } else {
        vec![]
    };
    Dependency::new(
        format!("not_implied_{seed}"),
        pattern,
        premise,
        vec![Literal::eq_const(VarId::new(0), fresh, 1i64)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Dataset;
    use gfd_core::{seq_imp, seq_sat};

    fn small_cfg(count: usize, seed: u64) -> GfdGenConfig {
        GfdGenConfig {
            count,
            k: 4,
            l: 3,
            seed,
            seed_patterns: 4,
            ..Default::default()
        }
    }

    #[test]
    fn generated_sets_are_satisfiable() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        for seed in 0..5 {
            let sigma = generate_sigma(&schema, &small_cfg(20, seed));
            assert_eq!(sigma.len(), 20);
            let r = seq_sat(&sigma);
            assert!(r.is_satisfiable(), "seed={seed} must be satisfiable");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        let a = generate_sigma(&schema, &small_cfg(10, 7));
        let b = generate_sigma(&schema, &small_cfg(10, 7));
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.premise, y.premise);
            assert_eq!(x.consequence.literals(), y.consequence.literals());
            assert_eq!(x.pattern.edges(), y.pattern.edges());
        }
    }

    #[test]
    fn patterns_respect_k_and_l() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::DBpedia, &mut vocab);
        let cfg = GfdGenConfig {
            count: 30,
            k: 5,
            l: 2,
            ..Default::default()
        };
        let sigma = generate_sigma(&schema, &cfg);
        for (_, g) in sigma.iter() {
            assert!(g.pattern.node_count() <= 5);
            assert!(g.premise.len() <= 2);
            assert!((1..=2).contains(&g.consequence.literals().unwrap().len()));
        }
    }

    #[test]
    fn direct_conflict_makes_unsat() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        let mut sigma = generate_sigma(&schema, &small_cfg(10, 1));
        inject_direct_conflict(&mut sigma, &schema, 99);
        assert!(!seq_sat(&sigma).is_satisfiable());
    }

    #[test]
    fn chain_conflict_makes_unsat_at_every_depth() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        for depth in [1, 2, 4] {
            let mut sigma = DepSet::new();
            inject_chain_conflict(&mut sigma, &schema, depth, 5);
            assert!(
                !seq_sat(&sigma).is_satisfiable(),
                "depth={depth} must be unsat"
            );
        }
    }

    #[test]
    fn probes_have_expected_implication_status() {
        let mut vocab = Vocab::new();
        let schema = Schema::new(Dataset::Tiny, &mut vocab);
        let sigma = generate_sigma(&schema, &small_cfg(12, 3));
        for seed in 0..4 {
            let implied = implied_probe(&sigma, &schema, seed).unwrap();
            assert!(
                seq_imp(&sigma, &implied).is_implied(),
                "implied probe seed={seed}"
            );
            let not = not_implied_probe(&sigma, &schema, &mut vocab, seed);
            assert!(
                !seq_imp(&sigma, &not).is_implied(),
                "not-implied probe seed={seed}"
            );
        }
    }

    #[test]
    fn canonical_and_conflicting_values_differ() {
        let a = AttrId::new(3);
        assert_ne!(canonical_value(a), conflicting_value(a));
    }
}
