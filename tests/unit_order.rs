//! The unit order `order_units` produces, checked against what it
//! promises, not against an implementation of it:
//!
//! * each rule's units form one run, in the order `generate_units` made
//!   them, every pivot of every batch in pivot order;
//! * boosted rules come first;
//! * for every edge ψ → φ of the rule-level relation where φ does not
//!   reach ψ, all of ψ's units precede φ's (unless only φ is boosted).
//!
//! The relation is rebuilt here pair by pair: ψ → φ iff a side `x.A` of
//! ψ's consequence and a side `y.A` of φ's premise name one attribute on
//! labels that can meet — equal, or either one the wildcard.

use gfd::core::{build_plans_lazy, generate_units, order_units, CanonicalGraph, DepSet, WorkUnit};
use gfd::gen::{real_life_workload, Dataset};
use gfd::prelude::*;
use proptest::prelude::*;

/// The sides `x.A` of some literals, as `(A, label of x)`.
type Sides = Vec<(AttrId, LabelId)>;

/// The sides of a rule's consequence and of its premise.
fn sides(rule: &Dependency) -> (Sides, Sides) {
    let (target, lits) = match &rule.consequence {
        Consequence::Literals(lits) => (&rule.pattern, lits),
        Consequence::Generate(gen) => (&gen.pattern, &gen.attrs),
    };
    let of = |p: &Pattern, lits: &[Literal]| -> Sides {
        lits.iter()
            .flat_map(|l| l.vars().zip(l.attrs()))
            .map(|(x, a)| (a, p.label(x)))
            .collect()
    };
    (of(target, lits), of(&rule.pattern, &rule.premise))
}

/// `feeds[ψ][φ]`: the rule-level relation over Σ, pair by pair.
fn feeds(sigma: &DepSet) -> Vec<Vec<bool>> {
    let sides: Vec<_> = sigma.iter().map(|(_, r)| sides(r)).collect();
    let meet = |l: LabelId, m: LabelId| l == m || l.is_wildcard() || m.is_wildcard();
    sides
        .iter()
        .map(|(writes, _)| {
            sides
                .iter()
                .map(|(_, reads)| {
                    writes
                        .iter()
                        .any(|&(a, l)| reads.iter().any(|&(b, m)| a == b && meet(l, m)))
                })
                .collect()
        })
        .collect()
}

/// `reach[ψ]` as a bitset: every rule a path of `feeds` leads to from ψ.
fn reach(feeds: &[Vec<bool>]) -> Vec<Vec<u64>> {
    let n = feeds.len();
    let mut reach: Vec<Vec<u64>> = feeds
        .iter()
        .map(|row| {
            let mut bits = vec![0u64; n.div_ceil(64)];
            for (j, _) in row.iter().enumerate().filter(|(_, &e)| e) {
                bits[j / 64] |= 1 << (j % 64);
            }
            bits
        })
        .collect();
    for k in 0..n {
        let via = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k / 64] >> (k % 64) & 1 == 1 {
                row.iter_mut().zip(&via).for_each(|(r, v)| *r |= v);
            }
        }
    }
    reach
}

/// Order `GΣ`'s or `G^X_Q`'s units and check every promise; the ordered
/// units are returned for further checks.
fn ordered(
    sigma: &DepSet,
    canon: &CanonicalGraph,
    prune: bool,
    boosted: Option<&[bool]>,
) -> Vec<WorkUnit> {
    let (pivots, _) = build_plans_lazy(sigma, &canon.index);
    let generated = generate_units(sigma, canon, &pivots, prune);
    let mut units = generated.clone();
    order_units(&mut units, sigma, canon, &pivots, boosted);
    // One run per rule, holding exactly its generated units in order.
    let mut first = vec![usize::MAX; sigma.len()];
    let mut last = vec![0usize; sigma.len()];
    for (i, u) in units.iter().enumerate() {
        let g = u.gfd.index();
        first[g] = first[g].min(i);
        last[g] = i;
    }
    for g in 0..sigma.len() {
        // Every pivot of every batch, not just each unit's first.
        let mine = |us: &[WorkUnit]| -> Vec<NodeId> {
            us.iter()
                .filter(|u| u.gfd.index() == g)
                .flat_map(|u| u.prefix.starts().flatten().copied())
                .collect()
        };
        let run = mine(&units);
        assert_eq!(run, mine(&generated), "rule {g} keeps its pivot order");
        let batches = units.iter().filter(|u| u.gfd.index() == g).count();
        assert!(
            batches == 0 || last[g] + 1 - first[g] == batches,
            "rule {g} is one run"
        );
    }
    let boost = |g: usize| boosted.is_some_and(|b| b[g]);
    let boosted_end = units.iter().filter(|u| boost(u.gfd.index())).count();
    assert!(
        units[..boosted_end].iter().all(|u| boost(u.gfd.index())),
        "boosted rules first"
    );

    let feeds = feeds(sigma);
    let reach = reach(&feeds);
    for (psi, row) in feeds.iter().enumerate() {
        for (phi, _) in row.iter().enumerate().filter(|(_, &e)| e) {
            let back = reach[phi][psi / 64] >> (psi % 64) & 1 == 1;
            let owned = first[psi] != usize::MAX && first[phi] != usize::MAX;
            if owned && !back && (boost(psi) || !boost(phi)) {
                assert!(
                    last[psi] < first[phi],
                    "rule {psi} feeds rule {phi}: {units:?}"
                );
            }
        }
    }
    units
}

/// The driver's implication boost: rules whose premise attributes all
/// occur in ϕ's premise.
fn imp_boost(sigma: &DepSet, phi: &Dependency) -> Vec<bool> {
    let x_attrs: std::collections::HashSet<AttrId> =
        phi.premise.iter().flat_map(Literal::attrs).collect();
    sigma
        .iter()
        .map(|(_, g)| g.premise_attrs().all(|a| x_attrs.contains(&a)))
        .collect()
}

#[test]
fn dbpedia_rule_order_holds() {
    for (size, seeds) in [(200, &[1u64, 42][..]), (600, &[43])] {
        for &seed in seeds {
            let w = real_life_workload(Dataset::DBpedia, size, seed, None);
            let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
            let every_third: Vec<bool> = (0..w.sigma.len()).map(|i| i % 3 == 0).collect();
            for boosted in [None, Some(every_third.as_slice())] {
                assert!(!ordered(&w.sigma, &canon, true, boosted).is_empty());
            }
            assert!(!w.probes.is_empty());
            for probe in &w.probes {
                let Ok((canon, _)) = CanonicalGraph::for_phi(&probe.phi) else {
                    continue;
                };
                let boost = imp_boost(&w.sigma, &probe.phi);
                ordered(&w.sigma, &canon, true, Some(&boost));
            }
        }
    }
}

/// One synthetic rule: a connected pattern (a path of `len` nodes whose
/// labels come from `labels`, label 3 the wildcard), premise literals over
/// `premise` attribute indices and consequence literals over
/// `consequence`.
#[derive(Clone, Debug)]
struct RuleSpec {
    labels: Vec<usize>,
    premise: Vec<usize>,
    consequence: Vec<usize>,
}

fn build_sigma(specs: &[RuleSpec]) -> DepSet {
    let mut vocab = Vocab::new();
    let mut labels: Vec<LabelId> = (0..3).map(|i| vocab.label(&format!("l{i}"))).collect();
    labels.push(LabelId::WILDCARD);
    let e = vocab.label("e");
    let attr = |vocab: &mut Vocab, i: usize| vocab.attr(&format!("a{i}"));
    let gfds = specs
        .iter()
        .enumerate()
        .map(|(r, spec)| {
            let mut p = Pattern::new();
            let vars: Vec<VarId> = spec
                .labels
                .iter()
                .enumerate()
                .map(|(i, &l)| p.add_node(labels[l], format!("x{i}")))
                .collect();
            for w in vars.windows(2) {
                p.add_edge(w[0], e, w[1]);
            }
            let last = *vars.last().expect("patterns are non-empty");
            // Alternate constant and variable literals so both literal
            // shapes contribute sides.
            let lits = |vocab: &mut Vocab, attrs: &[usize]| -> Vec<Literal> {
                attrs
                    .iter()
                    .enumerate()
                    .map(|(k, &a)| {
                        let a = attr(vocab, a);
                        if k % 2 == 0 {
                            Literal::eq_const(vars[0], a, 1i64)
                        } else {
                            Literal::eq_attr(vars[0], a, last, attr(vocab, (k + r) % 6))
                        }
                    })
                    .collect()
            };
            let premise = lits(&mut vocab, &spec.premise);
            let consequence = lits(&mut vocab, &spec.consequence);
            Dependency::new(format!("r{r}"), p, premise, consequence)
        })
        .collect();
    DepSet::from_vec(gfds)
}

/// The attribute every `hot` rule consumes; outside the pool the random
/// rules draw their *premises* from, so its consumers are exactly the hot
/// rules.
const HOT: usize = 7;

fn arb_rule() -> impl Strategy<Value = RuleSpec> {
    (
        proptest::collection::vec(0usize..4, 1..4),
        // Empty premises form the seed tier; the pool is small enough that
        // producer/consumer cycles (a→b, b→a) are the common case.
        proptest::collection::vec(0usize..6, 0..3),
        // Consequences may produce the hot attribute.
        proptest::collection::vec(0usize..8, 1..3),
    )
        .prop_map(|(labels, premise, consequence)| RuleSpec {
            labels,
            premise,
            consequence,
        })
}

/// Σ = random rules + 31–34 `hot` rules that all consume attribute `HOT`:
/// one key with many consumers.
fn arb_specs() -> impl Strategy<Value = Vec<RuleSpec>> {
    (
        proptest::collection::vec(arb_rule(), 2..24),
        31usize..35,
        proptest::collection::vec(0usize..4, 1..3),
    )
        .prop_map(|(mut rules, hot, hot_labels)| {
            for i in 0..hot {
                rules.insert(
                    (i * 7) % (rules.len() + 1),
                    RuleSpec {
                        labels: hot_labels.clone(),
                        premise: vec![HOT],
                        consequence: vec![i % 6],
                    },
                );
            }
            rules
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small synthetic Σ on `GΣ`: cycles, wildcards, empty-premise tiers,
    /// with and without the component filter and a boost mask.
    #[test]
    fn synthetic_rule_order_holds(
        specs in arb_specs(),
        prune in any::<bool>(),
        mask_seed in proptest::option::of(0u64..1 << 20),
    ) {
        let sigma = build_sigma(&specs);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let boosted: Option<Vec<bool>> = mask_seed.map(|s| {
            (0..sigma.len()).map(|i| (s >> (i % 20)) & 1 == 1).collect()
        });
        prop_assert!(!ordered(&sigma, &canon, prune, boosted.as_deref()).is_empty());
    }

    /// The same Σ against one rule's pattern-sized `G^X_Q`.
    #[test]
    fn synthetic_probe_rule_order_holds(
        specs in arb_specs(),
        probe in 0usize..64,
        prune in any::<bool>(),
    ) {
        let sigma = build_sigma(&specs);
        let phi = &sigma.as_slice()[probe % sigma.len()];
        if let Ok((canon, _)) = CanonicalGraph::for_phi(phi) {
            ordered(&sigma, &canon, prune, Some(&imp_boost(&sigma, phi)));
        }
    }
}

/// However many rules consume an attribute, its producer runs first — the
/// relation has no ubiquity cap: with 32 and with 33 consumers placed
/// ahead of it in Σ, the producer's units lead.
#[test]
fn hot_attribute_orders_its_producer_first() {
    for hot in [32usize, 33] {
        let mut specs: Vec<RuleSpec> = (0..hot)
            .map(|_| RuleSpec {
                labels: vec![0],
                premise: vec![HOT],
                consequence: vec![0],
            })
            .collect();
        specs.push(RuleSpec {
            labels: vec![0],
            premise: vec![1],
            consequence: vec![HOT],
        });
        let sigma = build_sigma(&specs);
        let phi = &sigma.as_slice()[0];
        let (canon, _) = CanonicalGraph::for_phi(phi).expect("consistent premise");
        let units = ordered(&sigma, &canon, true, None);
        assert_eq!(units.len(), hot + 1);
        assert_eq!(units[0].gfd.index(), hot, "hot = {hot}");
    }
}

/// A boost puts its rules first even when they consume what an unboosted
/// rule produces.
#[test]
fn boosted_consumers_come_first() {
    let specs = vec![
        RuleSpec {
            labels: vec![0],
            premise: vec![1],
            consequence: vec![2],
        },
        RuleSpec {
            labels: vec![0],
            premise: vec![2],
            consequence: vec![3],
        },
    ];
    let sigma = build_sigma(&specs);
    let (canon, _) = CanonicalGraph::for_sigma(&sigma);
    let unboosted = ordered(&sigma, &canon, true, None);
    assert_eq!(unboosted[0].gfd.index(), 0, "the producer leads unboosted");
    let boosted = ordered(&sigma, &canon, true, Some(&[false, true]));
    assert_eq!(boosted[0].gfd.index(), 1, "the boosted consumer leads");
}
