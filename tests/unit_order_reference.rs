//! Reference equivalence for the unit pipeline: `generate_units` and
//! `order_units` must produce the byte-identical unit sequence (same
//! `gfd`, `prefix`, `priority` for every unit) as the algorithm they
//! replaced, which materialised Σ's whole producer→consumer graph and
//! one `|V|`-bit ball per unit. That algorithm lives on here, verbatim,
//! as the oracle — and nowhere else.

use gfd::core::{build_plans_lazy, generate_units, order_units, CanonicalGraph, DepSet, WorkUnit};
use gfd::gen::{real_life_workload, Dataset};
use gfd::prelude::*;
use proptest::prelude::*;

/// The pre-change `gfd_core::unit` (and the `pivot_candidates` it called),
/// kept as it was. The only edit: the facade package has no `rustc-hash`
/// dependency, so the hash containers are std's under the old names —
/// every set is sorted before it is read, so the hasher cannot matter.
mod reference {
    use gfd::core::{CanonicalGraph, DepSet, Prefix, WorkUnit};
    use gfd::graph::{self as gfd_graph, neighborhood, NodeId, Pattern, VarId};
    use std::collections::BinaryHeap;

    type FxHashMap<K, V> = std::collections::HashMap<K, V>;
    type FxHashSet<T> = std::collections::HashSet<T>;

    type MinHeap = BinaryHeap<std::cmp::Reverse<((bool, bool, usize), usize)>>;

    fn pivot_candidates(
        canon: &CanonicalGraph,
        pattern: &Pattern,
        pivot_var: VarId,
    ) -> Vec<NodeId> {
        let label = pattern.label(pivot_var);
        let connected = pattern.is_connected();
        canon
            .index
            .candidates(label)
            .iter()
            .copied()
            .filter(|&z| {
                if connected {
                    canon.component_may_host(pattern, canon.component_of(z))
                } else {
                    true
                }
            })
            .collect()
    }

    pub fn generate_units(
        sigma: &DepSet,
        canon: &CanonicalGraph,
        pivots: &[VarId],
        prune_components: bool,
    ) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        for (id, gfd) in sigma.iter() {
            let candidates = if prune_components {
                pivot_candidates(canon, &gfd.pattern, pivots[id.index()])
            } else {
                canon
                    .index
                    .candidates(gfd.pattern.label(pivots[id.index()]))
                    .to_vec()
            };
            for z in candidates {
                units.push(WorkUnit {
                    gfd: id,
                    prefix: Prefix::Pivot(z),
                    priority: 0,
                });
            }
        }
        units
    }

    pub fn order_units(
        units: &mut [WorkUnit],
        sigma: &DepSet,
        canon: &CanonicalGraph,
        pivots: &[VarId],
        boosted: Option<&[bool]>,
    ) {
        let n = units.len();
        if n == 0 {
            return;
        }

        // attr -> GFDs whose premise mentions it.
        let mut consumers: FxHashMap<gfd_graph::AttrId, Vec<usize>> = FxHashMap::default();
        for (id, gfd) in sigma.iter() {
            let mut seen = FxHashSet::default();
            for a in gfd.premise_attrs() {
                if seen.insert(a) {
                    consumers.entry(a).or_default().push(id.index());
                }
            }
        }
        // Per GFD: the GFDs consuming what it produces, and the pattern radius
        // at its pivot. The ubiquity cap mirrors `gfd_core::ordering`: an
        // attribute consumed by a large fraction of Σ orders nothing useful
        // and would make this step O(|Σ|²).
        let cap = 32.max(sigma.len() / 8);
        let mut consumer_gfds: Vec<Vec<usize>> = Vec::with_capacity(sigma.len());
        let mut radius: Vec<u32> = Vec::with_capacity(sigma.len());
        for (id, gfd) in sigma.iter() {
            let mut out = FxHashSet::default();
            for a in gfd.consequence_attrs() {
                if let Some(cs) = consumers.get(&a) {
                    if cs.len() <= cap {
                        out.extend(cs.iter().copied());
                    }
                }
            }
            let mut v: Vec<usize> = out.into_iter().collect();
            v.sort_unstable();
            consumer_gfds.push(v);
            radius.push(gfd.pattern.radius_at(pivots[id.index()]));
        }

        // Units pivoted at each canonical node (sparse: a node hosts few
        // units because the component filter rejects most patterns).
        let mut node_units: Vec<Vec<u32>> = vec![Vec::new(); canon.graph.node_count()];
        for (i, u) in units.iter().enumerate() {
            node_units[u.pivot().index()].push(i as u32);
        }

        // Edges: w1 -> w2 when gfd2 consumes gfd1's output and pivot2 is within
        // dQ1 hops of pivot1. Balls are small: canonical components are
        // pattern-sized. Iterating units-at-node (few) and testing consumer
        // membership by binary search keeps this near-linear in the unit count.
        let mut successors: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_deg = vec![0u32; n];
        for (i, u) in units.iter().enumerate() {
            let gi = u.gfd.index();
            if consumer_gfds[gi].is_empty() {
                continue;
            }
            let ball = neighborhood::ball(&canon.graph, u.pivot(), radius[gi]);
            for z in ball.iter() {
                for &j in &node_units[z.index()] {
                    let j = j as usize;
                    if j != i
                        && consumer_gfds[gi]
                            .binary_search(&units[j].gfd.index())
                            .is_ok()
                    {
                        successors[i].push(j as u32);
                        in_deg[j] += 1;
                    }
                }
            }
        }

        // Kahn with priority tiers; cycles broken by forcing the best
        // remaining node.
        let key = |i: usize| -> (bool, bool, usize) {
            let g = units[i].gfd.index();
            let b = boosted.is_some_and(|b| b[g]);
            let empty = sigma.as_slice()[g].has_empty_premise();
            (!b, !empty, i)
        };
        let mut heap: MinHeap = BinaryHeap::new();
        for (i, &d) in in_deg.iter().enumerate() {
            if d == 0 {
                heap.push(std::cmp::Reverse((key(i), i)));
            }
        }
        let mut emitted = vec![false; n];
        // Cycle breaking: when the frontier empties, force the next unemitted
        // node from this pre-sorted list (amortized O(n) across the run).
        let mut fallback: Vec<usize> = (0..n).collect();
        fallback.sort_by_key(|&i| key(i));
        let mut fb_cursor = 0usize;
        let mut rank = 0u32;
        let mut priorities = vec![0u32; n];
        while rank < n as u32 {
            let next = match heap.pop() {
                Some(std::cmp::Reverse((_, i))) if !emitted[i] => i,
                Some(_) => continue,
                None => {
                    while emitted[fallback[fb_cursor]] {
                        fb_cursor += 1;
                    }
                    fallback[fb_cursor]
                }
            };
            emitted[next] = true;
            priorities[next] = rank;
            rank += 1;
            for &j in &successors[next] {
                let j = j as usize;
                if !emitted[j] {
                    in_deg[j] = in_deg[j].saturating_sub(1);
                    if in_deg[j] == 0 {
                        heap.push(std::cmp::Reverse((key(j), j)));
                    }
                }
            }
        }
        // Final order: boosted units jump the whole queue (the paper's
        // implication rule gives X-subsumed units the highest priority
        // outright), then topological rank.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            let b = boosted.is_some_and(|b| b[units[i].gfd.index()]);
            (!b, priorities[i])
        });
        let mut final_priority = vec![0u32; n];
        for (rank, &i) in order.iter().enumerate() {
            final_priority[i] = rank as u32;
        }
        for (i, u) in units.iter_mut().enumerate() {
            u.priority = final_priority[i];
        }
        units.sort_by_key(|u| u.priority);
    }
}

/// Run both pipelines on `(Σ, canon)` and return `(new, reference)`.
fn both(
    sigma: &DepSet,
    canon: &CanonicalGraph,
    prune_components: bool,
    boosted: Option<&[bool]>,
) -> (Vec<WorkUnit>, Vec<WorkUnit>) {
    let (pivots, _) = build_plans_lazy(sigma, &canon.index);
    let mut new = generate_units(sigma, canon, &pivots, prune_components);
    let mut old = reference::generate_units(sigma, canon, &pivots, prune_components);
    assert_eq!(new, old, "generate_units diverged");
    order_units(&mut new, sigma, canon, &pivots, boosted);
    reference::order_units(&mut old, sigma, canon, &pivots, boosted);
    (new, old)
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

/// A mask unrelated to any probe, so the boosted tier is populated on
/// `GΣ` too.
fn every_third(sigma: &DepSet) -> Vec<bool> {
    (0..sigma.len()).map(|i| i % 3 == 0).collect()
}

#[test]
fn dbpedia_unit_sequences_match_the_reference() {
    for (size, seeds) in [(200, &[1u64, 42, 43][..]), (1000, &[42, 43]), (4000, &[42])] {
        for &seed in seeds {
            let w = real_life_workload(Dataset::DBpedia, size, seed, None);
            let third = every_third(&w.sigma);

            let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
            for boosted in [None, Some(third.as_slice())] {
                let (new, old) = both(&w.sigma, &canon, true, boosted);
                assert!(!new.is_empty());
                assert_eq!(new, old, "GΣ, |Σ|={size}, seed={seed}");
            }

            assert!(!w.probes.is_empty());
            for (i, probe) in w.probes.iter().enumerate() {
                let Ok((canon, _)) = CanonicalGraph::for_phi(&probe.phi) else {
                    continue;
                };
                let boost = imp_boost(&w.sigma, &probe.phi);
                for boosted in [None, Some(boost.as_slice())] {
                    let (new, old) = both(&w.sigma, &canon, true, boosted);
                    assert_eq!(new, old, "G^X_Q of probe {i}, |Σ|={size}, seed={seed}");
                }
            }
        }
    }
}

/// One synthetic rule: a connected pattern (a path of `len` nodes whose
/// labels come from `labels`), premise literals over `premise` attribute
/// indices and consequence literals over `consequence`.
#[derive(Clone, Debug)]
struct RuleSpec {
    labels: Vec<usize>,
    premise: Vec<usize>,
    consequence: Vec<usize>,
}

fn build_sigma(specs: &[RuleSpec]) -> DepSet {
    let mut vocab = Vocab::new();
    let labels: Vec<LabelId> = (0..3).map(|i| vocab.label(&format!("l{i}"))).collect();
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
            // shapes contribute attributes.
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

/// The attribute every `hot`-tier rule consumes; index outside the pool
/// the random rules draw their *premises* from, so its consumer count is
/// exactly the number of hot rules.
const HOT: usize = 7;

fn arb_rule() -> impl Strategy<Value = RuleSpec> {
    (
        proptest::collection::vec(0usize..3, 1..4),
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

/// Σ = random rules + `hot` rules that all consume attribute `HOT`. With
/// |Σ| ≤ 256 the ubiquity cap is 32, so `hot ∈ {31..=34}` straddles it.
fn arb_specs() -> impl Strategy<Value = Vec<RuleSpec>> {
    (
        proptest::collection::vec(arb_rule(), 2..24),
        31usize..35,
        proptest::collection::vec(0usize..3, 1..3),
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

    /// Small synthetic Σ on `GΣ`: cap boundary, cycles, empty-premise
    /// tiers, with and without the component filter and a boost mask.
    #[test]
    fn synthetic_unit_sequences_match_the_reference(
        specs in arb_specs(),
        prune in any::<bool>(),
        mask_seed in proptest::option::of(0u64..1 << 20),
    ) {
        let sigma = build_sigma(&specs);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let boosted: Option<Vec<bool>> = mask_seed.map(|s| {
            (0..sigma.len()).map(|i| (s >> (i % 20)) & 1 == 1).collect()
        });
        let (new, old) = both(&sigma, &canon, prune, boosted.as_deref());
        prop_assert!(!new.is_empty());
        prop_assert_eq!(new, old);
    }

    /// The same Σ against one rule's pattern-sized `G^X_Q`.
    #[test]
    fn synthetic_probe_sequences_match_the_reference(
        specs in arb_specs(),
        probe in 0usize..64,
        prune in any::<bool>(),
    ) {
        let sigma = build_sigma(&specs);
        let phi = &sigma.as_slice()[probe % sigma.len()];
        if let Ok((canon, _)) = CanonicalGraph::for_phi(phi) {
            let boost = imp_boost(&sigma, phi);
            let (new, old) = both(&sigma, &canon, prune, Some(&boost));
            prop_assert_eq!(new, old);
        }
    }
}

/// The boundary itself, deterministically: an attribute consumed by
/// exactly `cap` rules still orders its producer first; with `cap + 1`
/// consumers it is ubiquitous and orders nothing.
#[test]
fn ubiquity_cap_boundary_is_the_reference_relation() {
    for (hot, producer_first) in [(32usize, true), (33, false)] {
        // Consumers first, the producer of HOT last: only a dependency
        // edge can move the producer's unit ahead of theirs.
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
        let (new, old) = both(&sigma, &canon, true, None);
        assert_eq!(new, old);
        assert_eq!(new.len(), hot + 1);
        assert_eq!(new[0].gfd.index() == hot, producer_first, "hot = {hot}");
    }
}
