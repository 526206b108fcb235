//! Canonical graphs: the small models the reasoning algorithms inspect.
//!
//! * For satisfiability (§IV-B): `GΣ` is the disjoint union of all patterns
//!   of Σ, wildcards kept as a reserved label. By Theorem 1, Σ is
//!   satisfiable iff some Σ-bounded attribute population of `GΣ` models Σ.
//! * For implication (§VI-A): `G^X_Q` is the pattern of ϕ materialized as a
//!   graph, with the premise `X` pre-loaded into the equivalence relation
//!   `EqX` (closed under transitivity by union-find construction). By
//!   Corollary 4, `Σ |= ϕ` iff some partial enforcement of Σ on `G^X_Q`
//!   conflicts or deduces `Y`.

use crate::dependency::{generate_deducible, Consequence, DepSet, Dependency};
use crate::eq::EqRel;
use crate::error::Conflict;
use crate::literal::Operand;
use gfd_graph::{Graph, LabelId, LabelIndex, MatchIndex, NodeId, Pattern, VarId};
use gfd_match::MatchPlan;
use rustc_hash::FxHashMap;

/// Which canonical components can host a connected pattern piece, so
/// impossible (pattern, component) pairs are pruned before any matching
/// runs. Every concrete label the graph carries on a node is a *feature*,
/// so is every one it carries on an edge, and feature 0 is "has an edge"
/// (what a wildcard-labelled pattern edge needs; the wildcard id is 0
/// too). A component holds its features as exact bit-words, and each
/// feature lists the components that hold it, so a pattern walks only
/// the components holding its rarest feature.
#[derive(Clone, Debug)]
struct Hosts {
    /// Per concrete label: its node feature and its edge feature, or
    /// `NO_FEATURE` where the graph has no such node or edge.
    feature_of: FxHashMap<LabelId, [u32; 2]>,
    /// Bit-words per component: the feature count over 64, rounded up.
    width: usize,
    /// Component `c`'s features: feature `f` is bit `f % 64` of word
    /// `c * width + f / 64`.
    bits: Vec<u64>,
    /// Per component, the OR of its bit-words: a one-word prefilter
    /// (`width` times smaller than `bits`) that settles most misses.
    summary: Vec<u64>,
    /// Per feature, the components holding it, in id order.
    hosts: Groups<u32>,
    /// Per component, its nodes, in id order.
    members: Groups<NodeId>,
}

const NO_FEATURE: u32 = u32::MAX;
// The two roles of a label, indices into `Hosts::feature_of`'s pairs.
const NODE: usize = 0;
const EDGE: usize = 1;

impl Hosts {
    /// Read off the pieces, whose nodes lie in components `comp`, with
    /// features numbered as a graph walk meets them: node labels first,
    /// then edges source-major. `O(|G| + components × features / 64)`.
    fn build<'p>(
        pieces: impl Iterator<Item = (usize, &'p Pattern)> + Clone,
        comp: &[u32],
        comps: usize,
        edges: usize,
    ) -> Self {
        let mut feature_of: FxHashMap<LabelId, [u32; 2]> = FxHashMap::default();
        let mut features = 1;
        let mut feature = |label: LabelId, role: usize| {
            let slot = &mut feature_of.entry(label).or_insert([NO_FEATURE; 2])[role];
            if *slot == NO_FEATURE {
                *slot = features;
                features += 1;
            }
            *slot
        };
        // (component, feature) of every node and edge, before the width
        // is known.
        let mut held = Vec::with_capacity(comp.len() + 2 * edges);
        for (offset, pattern) in pieces.clone() {
            for v in pattern.vars().filter(|&v| !pattern.label(v).is_wildcard()) {
                held.push((comp[offset + v.index()], feature(pattern.label(v), NODE)));
            }
        }
        for (offset, pattern) in pieces {
            for v in pattern.vars() {
                let c = comp[offset + v.index()];
                for &(label, _) in pattern.out_edges(v) {
                    held.push((c, 0));
                    if !label.is_wildcard() {
                        held.push((c, feature(label, EDGE)));
                    }
                }
            }
        }
        let width = (features as usize).div_ceil(64);
        let mut bits = vec![0u64; comps * width];
        for (c, f) in held {
            bits[c as usize * width + f as usize / 64] |= 1 << (f % 64);
        }
        let summary = (bits.chunks(width))
            .map(|words| words.iter().fold(0, |a, w| a | w))
            .collect();
        let hosts = Groups::new(features as usize, 0, |put| {
            for (c, words) in bits.chunks(width).enumerate() {
                for (i, &w) in words.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        put(i * 64 + w.trailing_zeros() as usize, c as u32);
                        w &= w - 1;
                    }
                }
            }
        });
        let members = Groups::new(comps, NodeId::new(0), |put| {
            for (v, &c) in comp.iter().enumerate() {
                put(c as usize, NodeId::new(v));
            }
        });
        Hosts {
            feature_of,
            width,
            bits,
            summary,
            hosts,
            members,
        }
    }

    /// Does component `c` hold every feature of `need`, whose OR is
    /// `need_summary`?
    fn holds(&self, c: u32, need: &[u64], need_summary: u64) -> bool {
        let c = c as usize;
        need_summary & !self.summary[c] == 0
            && (need.iter())
                .zip(&self.bits[c * self.width..])
                .all(|(n, h)| n & !h == 0)
    }
}

/// Values grouped by a dense key, each group in the order it was given:
/// group `k` is `values[start[k]..start[k + 1]]`.
#[derive(Clone, Debug)]
struct Groups<T> {
    start: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> Groups<T> {
    /// Group the (key, value) pairs `each` puts under `keys` keys, by a
    /// count and a fill (so `each` runs twice); `fill` only pre-sizes the
    /// values.
    fn new(keys: usize, fill: T, each: impl Fn(&mut dyn FnMut(usize, T))) -> Self {
        let mut start = vec![0u32; keys + 1];
        each(&mut |k, _| start[k + 1] += 1);
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut values = vec![fill; start[keys] as usize];
        let mut next = start.clone();
        each(&mut |k, v| {
            values[next[k] as usize] = v;
            next[k] += 1;
        });
        Groups { start, values }
    }

    fn get(&self, k: usize) -> &[T] {
        &self.values[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// Run `f` on `len` zeroed values, on the stack when they fit.
fn with_zeroed<T: Copy + Default, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    const INLINE: usize = 16;
    if len <= INLINE {
        f(&mut [T::default(); INLINE][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// A canonical graph with its label index, connected components and
/// per-component host index.
#[derive(Clone, Debug)]
pub struct CanonicalGraph {
    /// The underlying graph (`GΣ` or `G^X_Q`).
    pub graph: Graph,
    /// Label index over the graph.
    pub index: LabelIndex,
    comp: Vec<u32>,
    hosts: Hosts,
}

/// The disjoint union of every (premise) pattern in Σ — a generating rule
/// contributes its premise side only — laid out rule by rule as
/// `to_graph` + `append_disjoint` would, edges source-major. Returns the
/// graph and, per rule, the node offset of its pattern: the graph alone
/// is what the chase starts from, and [`CanonicalGraph::for_sigma`] adds
/// the index, components and host index the reasoning driver reads.
pub fn sigma_union(sigma: &DepSet) -> (Graph, Vec<usize>) {
    let mut graph = Graph::new();
    let mut offsets = Vec::with_capacity(sigma.len());
    for (_, dep) in sigma.iter() {
        let pattern = &dep.pattern;
        let offset = graph.node_count();
        let at = |v: VarId| NodeId::new(v.index() + offset);
        for v in pattern.vars() {
            graph.add_node(pattern.label(v));
        }
        for v in pattern.vars() {
            for &(label, dst) in pattern.out_edges(v) {
                graph.add_edge(at(v), label, at(dst));
            }
        }
        offsets.push(offset);
    }
    (graph, offsets)
}

impl CanonicalGraph {
    /// Index `graph`, the disjoint union of `pieces` with each piece's
    /// edges inside its node range, and read its components and host
    /// index off the pieces: a piece's components, numbered by least
    /// variable and shifted past the pieces before it, are the graph's,
    /// numbered by least node.
    fn from_pieces<'p>(
        graph: Graph,
        pieces: impl Iterator<Item = (usize, &'p Pattern)> + Clone,
    ) -> Self {
        let index = LabelIndex::build(&graph);
        let mut comp = vec![0; graph.node_count()];
        let mut comps = 0;
        for (offset, pattern) in pieces.clone() {
            let piece = &mut comp[offset..offset + pattern.node_count()];
            let count = pattern.label_components(piece);
            piece.iter_mut().for_each(|c| *c += comps);
            comps += count;
        }
        let hosts = Hosts::build(pieces, &comp, comps as usize, graph.edge_count());
        CanonicalGraph {
            graph,
            index,
            comp,
            hosts,
        }
    }

    /// Build `GΣ`: the disjoint union of every (premise) pattern in Σ
    /// ([`sigma_union`]) with its index, components and host index.
    /// Returns the canonical graph and, per rule, its pattern's node
    /// offset (variable `v` is node `offset + v`).
    pub fn for_sigma(sigma: &DepSet) -> (Self, Vec<usize>) {
        let (graph, offsets) = sigma_union(sigma);
        let patterns = sigma.as_slice().iter().map(|dep| &dep.pattern);
        let canon = Self::from_pieces(graph, offsets.iter().copied().zip(patterns));
        (canon, offsets)
    }

    /// Build `G^X_Q` for ϕ: the pattern as a graph (variable `i` is node
    /// `i`) plus `EqX`. An `Err` means `X` itself is inconsistent, in which
    /// case ϕ is trivially satisfied by every graph. Only the premise side
    /// of ϕ is read, so its consequence may be of either kind.
    pub fn for_phi(phi: &Dependency) -> Result<(Self, EqRel), Conflict> {
        let graph = phi.pattern.to_graph();
        let mut eq = EqRel::new();
        for lit in &phi.premise {
            let k1 = (NodeId::new(lit.var.index()), lit.attr);
            match &lit.rhs {
                Operand::Const(c) => {
                    eq.bind(k1, *c)?;
                }
                Operand::Attr(v2, a2) => {
                    let k2 = (NodeId::new(v2.index()), *a2);
                    eq.merge(k1, k2)?;
                }
            }
        }
        let canon = Self::from_pieces(graph, std::iter::once((0, &phi.pattern)));
        Ok((canon, eq))
    }

    /// The component of a node.
    pub fn component_of(&self, node: NodeId) -> u32 {
        self.comp[node.index()]
    }

    /// Pivot candidates for a pattern whose plan starts at `pivot_var`:
    /// the nodes of `pivot_var`'s label, in id order, whose component
    /// holds every concrete node and edge label of the pivot's pattern
    /// component, and an edge if that component has one (homomorphism is
    /// not injective: presence counts, multiplicity does not). Only the
    /// components holding the rarest of those features are visited.
    ///
    /// Note: for disconnected patterns only the pivot's own pattern
    /// component is filtered (a connected sub-pattern maps into a single
    /// canonical component, so its labels must all be there) — the
    /// remaining components of the pattern roam the whole canonical graph
    /// during the search, which keeps the unit count linear (a deliberate
    /// deviation from the paper's per-component pivot tuples, documented
    /// in DESIGN.md).
    pub fn pivot_candidates(&self, pattern: &Pattern, pivot_var: VarId) -> Vec<NodeId> {
        let label = pattern.label(pivot_var);
        let candidates = self.index.candidates(label);
        if candidates.is_empty() {
            // Nearly every rule of a large Σ on a pattern-sized `G^X_Q`.
            return Vec::new();
        }
        let hosts = &self.hosts;
        with_zeroed(pattern.node_count(), |comp| {
            pattern.label_components(comp);
            let inside = |v: VarId| comp[v.index()] == comp[pivot_var.index()];
            with_zeroed(hosts.width, |need| {
                // Collect the needed features and the rarest of them; a label
                // the graph lacks in that role rules out every component.
                let mut rarest: Option<(usize, u32)> = None;
                let mut require = |f: u32| {
                    need[f as usize / 64] |= 1 << (f % 64);
                    let count = hosts.hosts.get(f as usize).len();
                    if rarest.is_none_or(|(n, _)| count < n) {
                        rarest = Some((count, f));
                    }
                };
                let nodes = pattern.vars().filter(|&v| inside(v));
                let edges = pattern.edges().iter().filter(|e| inside(e.src));
                let needed =
                    (nodes.map(|v| (pattern.label(v), NODE))).chain(edges.map(|e| (e.label, EDGE)));
                for (l, role) in needed {
                    if role == EDGE {
                        require(0);
                    }
                    if l.is_wildcard() {
                        continue;
                    }
                    match hosts.feature_of.get(&l).map(|fs| fs[role]) {
                        Some(f) if f != NO_FEATURE => require(f),
                        _ => return Vec::new(),
                    }
                }
                let Some((_, rarest)) = rarest else {
                    // Only wildcard nodes: every component hosts the piece.
                    return candidates.to_vec();
                };
                let need_summary = need.iter().fold(0, |a, w| a | w);
                let mut kept = Vec::with_capacity(candidates.len());
                for &c in hosts.hosts.get(rarest as usize) {
                    if hosts.holds(c, need, need_summary) {
                        let members = hosts.members.get(c as usize).iter().copied();
                        let labelled = |&z: &NodeId| label.pattern_matches(self.graph.label(z));
                        kept.extend(members.filter(labelled));
                    }
                }
                // Components of a disconnected Σ pattern interleave in `GΣ`.
                if !kept.is_sorted() {
                    kept.sort_unstable();
                }
                kept
            })
        })
    }
}

/// Choose the pivot variable of a pattern: the most selective label under
/// `index`, ties broken towards higher degree (paper §V-B: "ideally we pick
/// a pivot that is selective; nonetheless any node can serve"). Works
/// against any `MatchIndex` so the streaming pipeline can re-pivot on
/// delta-adjusted frequencies.
pub fn choose_pivot<I: MatchIndex>(pattern: &Pattern, index: &I) -> VarId {
    pattern
        .vars()
        .min_by_key(|&v| {
            (
                index.frequency(pattern.label(v)),
                usize::MAX - pattern.degree(v),
            )
        })
        .expect("patterns are non-empty")
}

/// Build per-GFD pivots and pivoted match plans against a canonical graph,
/// skipping plan construction for GFDs whose pivot has no candidate at
/// all — they cannot match and never receive a work unit. On
/// implication's pattern-sized `G^X_Q`, this skips nearly all of a large
/// Σ.
pub fn build_plans_lazy(
    sigma: &DepSet,
    index: &LabelIndex,
) -> (Vec<VarId>, Vec<Option<MatchPlan>>) {
    let mut pivots = Vec::with_capacity(sigma.len());
    let mut plans = Vec::with_capacity(sigma.len());
    for (_, gfd) in sigma.iter() {
        let pivot = choose_pivot(&gfd.pattern, index);
        pivots.push(pivot);
        if index.frequency(gfd.pattern.label(pivot)) == 0 {
            plans.push(None);
        } else {
            plans.push(Some(MatchPlan::build(
                &gfd.pattern,
                Some(pivot),
                Some(index),
            )));
        }
    }
    (pivots, plans)
}

/// Can ϕ's consequence be deduced from `eq` at the identity match
/// (variable `i` ↦ node `i`) of a graph embedding ϕ's pattern there —
/// `G^X_Q`, or a chase of it? For literals this is the paper's `Y ⊆ EqH`
/// termination test for implication and `index` is not read; a generating
/// consequence must be realized in the graph `index` covers with every
/// attribute assignment forced by `eq`.
pub fn consequence_deducible_on<I: MatchIndex>(eq: &EqRel, index: &I, phi: &Dependency) -> bool {
    match &phi.consequence {
        Consequence::Literals(lits) => lits.iter().all(|lit| {
            let k1 = (NodeId::new(lit.var.index()), lit.attr);
            match &lit.rhs {
                Operand::Const(c) => eq.deduces_const(k1, *c),
                Operand::Attr(v2, a2) => eq.deduces_eq(k1, (NodeId::new(v2.index()), *a2)),
            }
        }),
        Consequence::Generate(gen) => {
            let identity: Vec<NodeId> =
                phi.pattern.vars().map(|v| NodeId::new(v.index())).collect();
            generate_deducible(eq, index, gen, &identity, &mut Vec::new())
        }
    }
}

/// [`consequence_deducible_on`] ϕ's own `G^X_Q`, under its pre-merge
/// two-argument signature — alive only because `gfdbench/` calls it;
/// ROADMAP [bench] deletes it.
pub fn consequence_deducible(eq: &mut EqRel, phi: &Dependency) -> bool /* gfdbench-pin */ {
    // Only a generating consequence reads the index.
    let graph = if phi.is_generating() {
        phi.pattern.to_graph()
    } else {
        Graph::new()
    };
    consequence_deducible_on(eq, &LabelIndex::build(&graph), phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use gfd_graph::{ValueId, Vocab};
    use proptest::prelude::*;

    /// The `GΣ` nodes of rule `i`'s pattern, from `for_sigma`'s offsets.
    fn nodes_of(sigma: &DepSet, offsets: &[usize], i: usize) -> Vec<NodeId> {
        let n = sigma.as_slice()[i].pattern.node_count();
        (offsets[i]..offsets[i] + n).map(NodeId::new).collect()
    }

    fn two_pattern_sigma(vocab: &mut Vocab) -> DepSet {
        let t = vocab.label("t");
        let u = vocab.label("u");
        let e = vocab.label("e");
        let a = vocab.attr("a");

        let mut p1 = Pattern::new();
        let x = p1.add_node(t, "x");
        let y = p1.add_node(t, "y");
        p1.add_edge(x, e, y);

        let mut p2 = Pattern::new();
        let z = p2.add_node(u, "z");

        DepSet::from_vec(vec![
            Dependency::new("g0", p1, vec![], vec![Literal::eq_const(x, a, 1i64)]),
            Dependency::new("g1", p2, vec![], vec![Literal::eq_const(z, a, 2i64)]),
        ])
    }

    #[test]
    fn sigma_canonical_is_disjoint_union() {
        let mut vocab = Vocab::new();
        let sigma = two_pattern_sigma(&mut vocab);
        let (canon, offsets) = CanonicalGraph::for_sigma(&sigma);
        let node_of = |i| nodes_of(&sigma, &offsets, i);
        assert_eq!(canon.graph.node_count(), 3);
        assert_eq!(canon.graph.edge_count(), 1);
        assert_eq!(node_of(0).len(), 2);
        assert_eq!(node_of(1).len(), 1);
        // The two patterns are in different components.
        assert_ne!(
            canon.component_of(node_of(0)[0]),
            canon.component_of(node_of(1)[0])
        );
        // Each pattern matches its own copy (identity): required for the
        // model condition.
        assert!(gfd_match::has_match(
            &canon.graph,
            &canon.index,
            &sigma[gfd_graph::GfdId::new(0)].pattern
        ));
    }

    #[test]
    fn component_host_filter_prunes_cross_pattern_units() {
        let mut vocab = Vocab::new();
        let sigma = two_pattern_sigma(&mut vocab);
        let (canon, offsets) = CanonicalGraph::for_sigma(&sigma);
        let node_of = |i| nodes_of(&sigma, &offsets, i);
        let (t, u, e) = (vocab.label("t"), vocab.label("u"), vocab.label("e"));
        // A wildcard pivot whose piece needs `t` and `e` lives only in g0's
        // component (t--e-->t), one that needs `u` and an edge nowhere: g1's
        // component is a single `u` node.
        let mut q = Pattern::new();
        let w = q.add_node(LabelId::WILDCARD, "w");
        let y = q.add_node(t, "y");
        q.add_edge(w, e, y);
        assert_eq!(canon.pivot_candidates(&q, w), node_of(0));
        let mut r = Pattern::new();
        let w = r.add_node(LabelId::WILDCARD, "w");
        let z = r.add_node(u, "z");
        r.add_edge(w, LabelId::WILDCARD, z);
        assert!(canon.pivot_candidates(&r, w).is_empty());
    }

    #[test]
    fn pivot_candidates_respect_filters() {
        let mut vocab = Vocab::new();
        let sigma = two_pattern_sigma(&mut vocab);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (pivots, plans) = build_plans_lazy(&sigma, &canon.index);
        assert_eq!(pivots.len(), 2);
        assert!(plans.iter().all(Option::is_some));
        let g0 = &sigma[gfd_graph::GfdId::new(0)];
        let cands = canon.pivot_candidates(&g0.pattern, pivots[0]);
        // Only the two `t` nodes of g0's own component qualify.
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn disconnected_pattern_filters_on_the_pivots_own_component() {
        let mut vocab = Vocab::new();
        let sigma = two_pattern_sigma(&mut vocab);
        let (canon, offsets) = CanonicalGraph::for_sigma(&sigma);
        let node_of = |i| nodes_of(&sigma, &offsets, i);
        let (t, u, e) = (vocab.label("t"), vocab.label("u"), vocab.label("e"));
        // Q = (x:t -e-> y:t) ⊎ (z:u): no canonical component hosts all of
        // Q's labels, but each pattern component has a host.
        let mut q = Pattern::new();
        let x = q.add_node(t, "x");
        let y = q.add_node(t, "y");
        q.add_edge(x, e, y);
        let z = q.add_node(u, "z");
        assert_eq!(canon.pivot_candidates(&q, x), node_of(0));
        assert_eq!(canon.pivot_candidates(&q, z), node_of(1));
        // A `t` pivot whose own component needs an edge label GΣ lacks
        // anywhere near a `t` node has no candidate at all.
        let mut r = Pattern::new();
        let x = r.add_node(t, "x");
        let y = r.add_node(t, "y");
        r.add_edge(x, vocab.label("f"), y);
        r.add_node(u, "z");
        assert!(canon.pivot_candidates(&r, x).is_empty());
    }

    #[test]
    fn phi_canonical_builds_eqx_with_transitivity() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, vocab.label("e"), y);
        // X: x.a = y.b ∧ y.b = y.c ∧ x.a = 5  ⇒ all three keys equal 5.
        let phi = Dependency::new(
            "phi",
            p,
            vec![
                Literal::eq_attr(x, a, y, b),
                Literal::eq_attr(y, b, y, c),
                Literal::eq_const(x, a, 5i64),
            ],
            vec![],
        );
        let (canon, eqx) = CanonicalGraph::for_phi(&phi).unwrap();
        assert_eq!(canon.graph.node_count(), 2);
        assert!(eqx.deduces_const((NodeId::new(1), c), ValueId::of(5)));
        assert!(eqx.same_class((NodeId::new(0), a), (NodeId::new(1), c)));
    }

    #[test]
    fn inconsistent_premise_is_reported() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let phi = Dependency::new(
            "phi",
            p,
            vec![Literal::eq_const(x, a, 1i64), Literal::eq_const(x, a, 2i64)],
            vec![],
        );
        assert!(CanonicalGraph::for_phi(&phi).is_err());
    }

    #[test]
    fn consequence_deducible_checks_y() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let phi = Dependency::new(
            "phi",
            p,
            vec![],
            vec![Literal::eq_const(x, a, 1i64), Literal::eq_attr(x, a, x, b)],
        );
        let (canon, mut eq) = CanonicalGraph::for_phi(&phi).unwrap();
        assert!(!consequence_deducible_on(&eq, &canon.index, &phi));
        eq.bind((NodeId::new(0), a), ValueId::of(1i64)).unwrap();
        assert!(!consequence_deducible_on(&eq, &canon.index, &phi));
        eq.merge((NodeId::new(0), a), (NodeId::new(0), b)).unwrap();
        assert!(consequence_deducible_on(&eq, &canon.index, &phi));
    }

    /// A generating consequence is deducible once the indexed graph
    /// realizes its target with every assignment forced by `eq`.
    #[test]
    fn consequence_deducible_checks_a_generated_target() {
        use crate::dependency::GenerateConsequence;
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        // Target: an `e`-successor of x whose `a` is 1 — y itself serves.
        let mut gen = GenerateConsequence::over(&p);
        let z = gen.add_fresh(t, "z");
        gen.add_edge(x, e, z);
        gen.push_attr(Literal::eq_const(z, a, 1i64));
        let phi = Dependency::new("phi", p, vec![], gen);
        let (canon, mut eq) = CanonicalGraph::for_phi(&phi).unwrap();
        assert!(!consequence_deducible_on(&eq, &canon.index, &phi));
        eq.bind((NodeId::new(1), a), ValueId::of(1i64)).unwrap();
        assert!(consequence_deducible_on(&eq, &canon.index, &phi));
        // The two-argument form builds that index itself.
        assert!(consequence_deducible(&mut eq, &phi)); // gfdbench-pin
    }

    #[test]
    fn wildcard_components_host_wildcard_patterns() {
        let mut vocab = Vocab::new();
        let mut p = Pattern::new();
        let x = p.add_node(LabelId::WILDCARD, "x");
        let y = p.add_node(LabelId::WILDCARD, "y");
        p.add_edge(x, LabelId::WILDCARD, y);
        let a = vocab.attr("a");
        let sigma = DepSet::from_vec(vec![Dependency::new(
            "g",
            p.clone(),
            vec![],
            vec![Literal::eq_const(x, a, 1i64)],
        )]);
        let (canon, offsets) = CanonicalGraph::for_sigma(&sigma);
        let node_of = |i| nodes_of(&sigma, &offsets, i);
        assert_eq!(canon.pivot_candidates(&p, x), node_of(0));
        // A concrete-labelled piece is rejected: wildcard canonical nodes
        // do not satisfy concrete labels.
        let mut q = Pattern::new();
        let z = q.add_node(LabelId::WILDCARD, "z");
        let t = q.add_node(vocab.label("t"), "t");
        q.add_edge(z, LabelId::WILDCARD, t);
        assert!(canon.pivot_candidates(&q, z).is_empty());
    }

    /// Undirected components of `graph` by BFS, numbered by least node:
    /// the canonical components as a definition, independent of how
    /// `CanonicalGraph` derives them.
    fn naive_components(graph: &Graph) -> Vec<u32> {
        let mut comp = vec![u32::MAX; graph.node_count()];
        let mut count = 0;
        for start in graph.nodes() {
            if comp[start.index()] != u32::MAX {
                continue;
            }
            comp[start.index()] = count;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &(_, u) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
                    if comp[u.index()] == u32::MAX {
                        comp[u.index()] = count;
                        queue.push_back(u);
                    }
                }
            }
            count += 1;
        }
        comp
    }

    /// Which variables share `pivot`'s pattern component: grown from the
    /// pivot over the edge list until no edge leaves it.
    fn pattern_component(pattern: &Pattern, pivot: VarId) -> Vec<bool> {
        let mut inside = vec![false; pattern.node_count()];
        inside[pivot.index()] = true;
        let mut grew = true;
        while grew {
            grew = false;
            for e in pattern.edges() {
                let (s, d) = (e.src.index(), e.dst.index());
                if inside[s] != inside[d] {
                    (inside[s], inside[d], grew) = (true, true, true);
                }
            }
        }
        inside
    }

    /// The host filter as a definition, read off `canon.graph` itself
    /// (`comp` is [`naive_components`] of it): a candidate of the pivot's
    /// label is kept iff its canonical component offers every concrete
    /// node and edge label the pivot's pattern component needs, and an
    /// edge if that component has one. Kept as the oracle.
    fn pivot_candidates_reference(
        canon: &CanonicalGraph,
        comp: &[u32],
        pattern: &Pattern,
        pivot: VarId,
    ) -> Vec<NodeId> {
        let reach = pattern_component(pattern, pivot);
        let inside = |v: VarId| reach[v.index()];
        let node_needs: Vec<LabelId> = pattern
            .vars()
            .filter(|&v| inside(v) && !pattern.label(v).is_wildcard())
            .map(|v| pattern.label(v))
            .collect();
        let edges = pattern.edges().iter().filter(|e| inside(e.src));
        let edge_needs: Vec<LabelId> = edges.clone().map(|e| e.label).collect();
        let wildcard_edge = edges.clone().any(|e| e.label.is_wildcard());
        // Per canonical component: its node labels and its edge labels.
        let mut offered: Vec<(Vec<LabelId>, Vec<LabelId>)> = Vec::new();
        for v in canon.graph.nodes() {
            let c = comp[v.index()] as usize;
            offered.resize_with(offered.len().max(c + 1), Default::default);
            offered[c].0.push(canon.graph.label(v));
        }
        for (src, label, _) in canon.graph.edges() {
            offered[comp[src.index()] as usize].1.push(label);
        }
        let hosts = |c: u32| {
            let (nodes, edges) = &offered[c as usize];
            node_needs.iter().all(|l| nodes.contains(l))
                && edge_needs
                    .iter()
                    .all(|l| l.is_wildcard() || edges.contains(l))
                && (!wildcard_edge || !edges.is_empty())
        };
        let candidates = canon.index.candidates(pattern.label(pivot));
        let kept = candidates.iter().copied();
        kept.filter(|&z| hosts(comp[z.index()])).collect()
    }

    /// Ids past 64 and 128, and draws from three hundred labels. Features
    /// are numbered by first appearance in `GΣ`, not by id, so what puts
    /// labels in several bit words is how many distinct ones Σ carries
    /// (and the proptest's filler rules).
    fn arb_label() -> impl Strategy<Value = LabelId> {
        let wide = || (3..300usize).prop_map(LabelId::new);
        prop_oneof![
            Just(LabelId::WILDCARD),
            Just(LabelId::new(1)),
            Just(LabelId::new(65)),
            prop_oneof![
                Just(LabelId::new(2)),
                Just(LabelId::new(66)),
                Just(LabelId::new(129)),
                Just(LabelId::new(130)),
            ],
            wide(),
            wide(),
            wide(),
            wide(),
        ]
    }

    /// A pattern of up to four nodes and four edges: connected,
    /// disconnected or edgeless as the draw has it.
    fn arb_pattern() -> impl Strategy<Value = Pattern> {
        let nodes = proptest::collection::vec(arb_label(), 1..5);
        let edges = proptest::collection::vec((0..4usize, arb_label(), 0..4usize), 0..5);
        (nodes, edges).prop_map(|(nodes, edges)| {
            let mut p = Pattern::new();
            for label in &nodes {
                p.add_anon_node(*label);
            }
            for (src, label, dst) in edges {
                p.add_edge(
                    VarId::new(src % nodes.len()),
                    label,
                    VarId::new(dst % nodes.len()),
                );
            }
            p
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every pivot of Σ's own patterns and of patterns foreign to `GΣ`
        /// (whose labels some component may lack) keeps exactly the
        /// candidates the per-candidate filter kept, in the same order.
        /// `filler` one-node rules of labels no other rule uses sit
        /// between the two halves of Σ, so the second half's new labels
        /// are numbered past 64 or 128 and one component can hold two
        /// labels that share a bit of its one-word summary. The same
        /// holds on each rule's own `G^X_Q`, and every canonical graph's
        /// components are the BFS's.
        #[test]
        fn signature_host_filter_keeps_what_the_exact_filter_kept(
            sigma in proptest::collection::vec(arb_pattern(), 1..24),
            filler in 0..130usize,
            probes in proptest::collection::vec(arb_pattern(), 1..4),
        ) {
            let one_node = |i: usize| {
                let mut p = Pattern::new();
                p.add_anon_node(LabelId::new(1000 + i));
                p
            };
            let (head, tail) = sigma.split_at(sigma.len() / 2);
            let fillers = (0..filler).map(one_node);
            let layout = head.iter().cloned().chain(fillers).chain(tail.iter().cloned());
            let rules = layout.map(|p| Dependency::new("g", p, vec![], vec![]));
            let (g_sigma, _) = CanonicalGraph::for_sigma(&DepSet::from_vec(rules.collect()));
            let g_phis = sigma.iter().map(|p| {
                let phi = Dependency::new("phi", p.clone(), vec![], vec![]);
                CanonicalGraph::for_phi(&phi).unwrap().0
            });
            for canon in std::iter::once(g_sigma).chain(g_phis) {
                let comp = naive_components(&canon.graph);
                for v in canon.graph.nodes() {
                    prop_assert_eq!(canon.component_of(v), comp[v.index()], "node {:?}", v);
                }
                for pattern in sigma.iter().chain(&probes) {
                    for pivot in pattern.vars() {
                        prop_assert_eq!(
                            canon.pivot_candidates(pattern, pivot),
                            pivot_candidates_reference(&canon, &comp, pattern, pivot),
                            "pattern {:?} pivot {:?}", pattern, pivot
                        );
                    }
                }
            }
        }
    }
}
