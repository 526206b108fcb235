//! Named experiment workloads: the inputs of every table and figure in
//! §VII, reproducible per seed.

use crate::gfd_gen::{
    generate_sigma, implied_probe, inject_chain_conflict, not_implied_probe, GfdGenConfig,
};
use crate::schema::{Dataset, Schema};
use gfd_core::{DepSet, Dependency};
use gfd_graph::Vocab;

/// An implication probe with its expected answer.
#[derive(Clone, Debug)]
pub struct ImpProbe {
    /// The candidate GFD ϕ.
    pub phi: Dependency,
    /// Whether `Σ |= ϕ` should hold.
    pub expect_implied: bool,
}

/// A complete reasoning workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (e.g. `DBpedia`).
    pub name: String,
    /// Vocabulary shared by Σ and the probes.
    pub vocab: Vocab,
    /// The schema labels were drawn from.
    pub schema: Schema,
    /// The rule set.
    pub sigma: DepSet,
    /// Implication probes (for the `*Imp` experiments).
    pub probes: Vec<ImpProbe>,
}

/// Build the "real-life" workload for a dataset (Fig. 5 and Exp-1): a
/// satisfiable mined-style set with `size` rules, patterns up to 6 nodes
/// and up to 5 literals, plus implication probes.
///
/// `unsat_chain`: when `Some(depth)`, an Example-4-style conflict chain is
/// appended so satisfiability checking exercises early termination — the
/// paper expands mined sets with up to 10 random GFDs for exactly this.
pub fn real_life_workload(
    dataset: Dataset,
    size: usize,
    seed: u64,
    unsat_chain: Option<usize>,
) -> Workload {
    let mut vocab = Vocab::new();
    let schema = Schema::new(dataset, &mut vocab);
    let cfg = GfdGenConfig {
        count: size,
        k: 6,
        l: 5,
        seed,
        seed_patterns: (size / 24).clamp(4, 64),
        ..Default::default()
    };
    let mut sigma = generate_sigma(&schema, &cfg);
    if let Some(depth) = unsat_chain {
        inject_chain_conflict(&mut sigma, &schema, depth, seed ^ 0xDEAD);
    }
    let probes = make_probes(&sigma, &schema, &mut vocab, seed);
    Workload {
        name: dataset.name().to_string(),
        vocab,
        schema,
        sigma,
        probes,
    }
}

/// Build the synthetic workload of Exp-2/Exp-3: `size` rules with the
/// given `k` and `l` over the DBpedia-like schema (the paper generates
/// synthetic GFDs "with seed patterns, frequent edges and active
/// attributes from DBpedia").
pub fn synthetic_workload(size: usize, k: usize, l: usize, seed: u64) -> Workload {
    let mut vocab = Vocab::new();
    let schema = Schema::new(Dataset::DBpedia, &mut vocab);
    let cfg = GfdGenConfig {
        count: size,
        k,
        l,
        seed,
        seed_patterns: (size / 24).clamp(4, 64),
        ..Default::default()
    };
    let sigma = generate_sigma(&schema, &cfg);
    let probes = make_probes(&sigma, &schema, &mut vocab, seed);
    Workload {
        name: format!("synthetic(|Σ|={size},k={k},l={l})"),
        vocab,
        schema,
        sigma,
        probes,
    }
}

fn make_probes(sigma: &DepSet, schema: &Schema, vocab: &mut Vocab, seed: u64) -> Vec<ImpProbe> {
    let mut probes = Vec::new();
    for i in 0..3u64 {
        if let Some(phi) = implied_probe(sigma, schema, seed.wrapping_add(i)) {
            probes.push(ImpProbe {
                phi,
                expect_implied: true,
            });
        }
        probes.push(ImpProbe {
            phi: not_implied_probe(sigma, schema, vocab, seed.wrapping_add(100 + i)),
            expect_implied: false,
        });
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{seq_imp, seq_sat};

    #[test]
    fn real_life_workloads_are_satisfiable_without_chain() {
        for dataset in [Dataset::Yago2, Dataset::Tiny] {
            let w = real_life_workload(dataset, 20, 11, None);
            assert_eq!(w.sigma.len(), 20);
            assert!(seq_sat(&w.sigma).is_satisfiable(), "{}", w.name);
            assert!(!w.probes.is_empty());
        }
    }

    #[test]
    fn chain_workloads_are_unsat() {
        let w = real_life_workload(Dataset::Tiny, 15, 3, Some(3));
        assert!(!seq_sat(&w.sigma).is_satisfiable());
    }

    #[test]
    fn probes_answer_as_labelled() {
        let w = synthetic_workload(15, 4, 3, 5);
        for probe in &w.probes {
            let r = seq_imp(&w.sigma, &probe.phi);
            assert_eq!(
                r.is_implied(),
                probe.expect_implied,
                "probe {} mislabelled",
                probe.phi.name
            );
        }
    }

    #[test]
    fn synthetic_workload_is_reproducible() {
        let a = synthetic_workload(10, 4, 2, 9);
        let b = synthetic_workload(10, 4, 2, 9);
        assert_eq!(a.sigma.len(), b.sigma.len());
        for ((_, x), (_, y)) in a.sigma.iter().zip(b.sigma.iter()) {
            assert_eq!(x.consequence.literals(), y.consequence.literals());
        }
    }
}
