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

/// The concrete labels of a connected piece of graph, used to prune
/// impossible (pattern, component) pairs before any matching runs: what a
/// canonical component offers, or what a connected (sub-)pattern needs of
/// the one component every match of it lies in.
#[derive(Clone, Debug, Default)]
struct LabelProfile {
    /// Sorted distinct concrete node labels.
    node_labels: Vec<LabelId>,
    /// Sorted distinct concrete edge labels.
    edge_labels: Vec<LabelId>,
    /// Is there any edge at all? (A wildcard-labelled pattern edge needs
    /// one; a concrete-labelled one needs it too, but its label says so.)
    has_edge: bool,
    /// One-word Bloom signature of both label lists (bit `id mod 64`): a
    /// needed bit that is not offered settles most tests — the common
    /// outcome — without touching the lists.
    signature: u64,
}

impl LabelProfile {
    fn add_node(&mut self, label: LabelId) {
        if !label.is_wildcard() {
            self.node_labels.push(label);
        }
    }

    fn add_edge(&mut self, label: LabelId) {
        self.has_edge = true;
        if !label.is_wildcard() {
            self.edge_labels.push(label);
        }
    }

    /// Sort and deduplicate the lists and derive the signature.
    fn seal(&mut self) {
        for labels in [&mut self.node_labels, &mut self.edge_labels] {
            labels.sort_unstable();
            labels.dedup();
            for l in labels.iter() {
                self.signature |= 1u64 << (l.index() % 64);
            }
        }
    }

    /// Label-subset test; homomorphism is non-injective, so counts don't
    /// matter, presence does.
    fn offers(&self, needs: &LabelProfile) -> bool {
        let present =
            |have: &[LabelId], need: &[LabelId]| need.iter().all(|l| have.binary_search(l).is_ok());
        needs.signature & !self.signature == 0
            && (!needs.has_edge || self.has_edge)
            && present(&self.node_labels, &needs.node_labels)
            && present(&self.edge_labels, &needs.edge_labels)
    }

    /// The needs of the pattern component containing `within`, or of the
    /// whole pattern for `None`.
    fn needs_of(pattern: &Pattern, within: Option<VarId>) -> Self {
        let reach = within.map(|w| pattern.distances_from(w));
        let inside = |v: VarId| reach.as_ref().is_none_or(|d| d[v.index()] != u32::MAX);
        let mut needs = LabelProfile::default();
        for v in pattern.vars().filter(|&v| inside(v)) {
            needs.add_node(pattern.label(v));
        }
        for e in pattern.edges().iter().filter(|e| inside(e.src)) {
            needs.add_edge(e.label);
        }
        needs.seal();
        needs
    }
}

/// A canonical graph with its label index, connected components and
/// per-component pruning profiles.
#[derive(Clone, Debug)]
pub struct CanonicalGraph {
    /// The underlying graph (`GΣ` or `G^X_Q`).
    pub graph: Graph,
    /// Label index over the graph.
    pub index: LabelIndex,
    comp: Vec<u32>,
    profiles: Vec<LabelProfile>,
}

impl CanonicalGraph {
    /// Wrap a prepared graph, computing the index and profiles.
    pub fn from_graph(graph: Graph) -> Self {
        let index = LabelIndex::build(&graph);
        let (comp, comp_count) = graph.components();
        let mut profiles = vec![LabelProfile::default(); comp_count];
        for v in graph.nodes() {
            profiles[comp[v.index()] as usize].add_node(graph.label(v));
        }
        for (src, label, _) in graph.edges() {
            profiles[comp[src.index()] as usize].add_edge(label);
        }
        profiles.iter_mut().for_each(LabelProfile::seal);
        CanonicalGraph {
            graph,
            index,
            comp,
            profiles,
        }
    }

    /// Build `GΣ`: the disjoint union of every (premise) pattern in Σ — a
    /// generating rule contributes its premise side only. Returns the
    /// canonical graph and, per rule, the node each pattern variable became.
    pub fn for_sigma(sigma: &DepSet) -> (Self, Vec<Vec<NodeId>>) {
        let mut graph = Graph::new();
        let mut node_of = Vec::with_capacity(sigma.len());
        for (_, gfd) in sigma.iter() {
            // The pattern laid out as `to_graph` + `append_disjoint` would,
            // edges source-major, without the throw-away copy.
            let pattern = &gfd.pattern;
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
            node_of.push(pattern.vars().map(at).collect());
        }
        (Self::from_graph(graph), node_of)
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
        Ok((Self::from_graph(graph), eq))
    }

    /// The component of a node.
    pub fn component_of(&self, node: NodeId) -> u32 {
        self.comp[node.index()]
    }

    /// Cheap necessary condition: can `pattern` possibly match with its
    /// pivot inside component `comp`?
    pub fn component_may_host(&self, pattern: &Pattern, comp: u32) -> bool {
        self.profiles[comp as usize].offers(&LabelProfile::needs_of(pattern, None))
    }

    /// Pivot candidates for a pattern whose plan starts at `pivot_var`:
    /// label-compatible nodes whose component passes the host filter.
    ///
    /// Note: for disconnected patterns only the pivot's own pattern
    /// component is filtered (a connected sub-pattern maps into a single
    /// canonical component, so its labels must all be there) — the
    /// remaining components of the pattern roam the whole canonical graph
    /// during the search, which keeps the unit count linear (a deliberate
    /// deviation from the paper's per-component pivot tuples, documented
    /// in DESIGN.md).
    pub fn pivot_candidates(&self, pattern: &Pattern, pivot_var: VarId) -> Vec<NodeId> {
        let candidates = self.index.candidates(pattern.label(pivot_var));
        if candidates.is_empty() {
            // Nearly every rule of a large Σ on a pattern-sized `G^X_Q`.
            return Vec::new();
        }
        let needs = LabelProfile::needs_of(pattern, Some(pivot_var));
        // Candidates are node-id sorted and `GΣ` lays each component out
        // contiguously, so one remembered verdict serves a whole run.
        let mut last = (u32::MAX, false);
        candidates
            .iter()
            .copied()
            .filter(|&z| {
                let comp = self.component_of(z);
                if comp != last.0 {
                    last = (comp, self.profiles[comp as usize].offers(&needs));
                }
                last.1
            })
            .collect()
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
        let (canon, node_of) = CanonicalGraph::for_sigma(&sigma);
        assert_eq!(canon.graph.node_count(), 3);
        assert_eq!(canon.graph.edge_count(), 1);
        assert_eq!(node_of[0].len(), 2);
        assert_eq!(node_of[1].len(), 1);
        // The two patterns are in different components.
        assert_ne!(
            canon.component_of(node_of[0][0]),
            canon.component_of(node_of[1][0])
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
        let (canon, node_of) = CanonicalGraph::for_sigma(&sigma);
        let p0 = &sigma[gfd_graph::GfdId::new(0)].pattern;
        let p1 = &sigma[gfd_graph::GfdId::new(1)].pattern;
        let comp0 = canon.component_of(node_of[0][0]);
        let comp1 = canon.component_of(node_of[1][0]);
        // g0's pattern (t--e-->t) cannot live in g1's component (a single
        // `u` node) and vice versa.
        assert!(canon.component_may_host(p0, comp0));
        assert!(!canon.component_may_host(p0, comp1));
        assert!(canon.component_may_host(p1, comp1));
        assert!(!canon.component_may_host(p1, comp0));
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
        let (canon, node_of) = CanonicalGraph::for_sigma(&sigma);
        let (t, u, e) = (vocab.label("t"), vocab.label("u"), vocab.label("e"));
        // Q = (x:t -e-> y:t) ⊎ (z:u): no canonical component hosts all of
        // Q's labels, but each pattern component has a host.
        let mut q = Pattern::new();
        let x = q.add_node(t, "x");
        let y = q.add_node(t, "y");
        q.add_edge(x, e, y);
        let z = q.add_node(u, "z");
        assert_eq!(canon.pivot_candidates(&q, x), node_of[0]);
        assert_eq!(canon.pivot_candidates(&q, z), node_of[1]);
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
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        assert!(canon.component_may_host(&p, 0));
        // A concrete-labelled pattern is rejected: wildcard canonical nodes
        // do not satisfy concrete labels.
        let mut q = Pattern::new();
        q.add_node(vocab.label("t"), "z");
        assert!(!canon.component_may_host(&q, 0));
    }

    /// The host filter `pivot_candidates` ran before components and
    /// patterns carried a label signature, as it was: the needs of the
    /// pivot's pattern component (`Pattern::components`), tested one
    /// candidate at a time by binary search. Kept as the oracle.
    fn pivot_candidates_reference(
        canon: &CanonicalGraph,
        pattern: &Pattern,
        pivot: VarId,
    ) -> Vec<NodeId> {
        let (comp, _) = pattern.components();
        let inside = |v: VarId| comp[v.index()] == comp[pivot.index()];
        let mut node_labels: Vec<LabelId> = pattern
            .vars()
            .filter(|&v| inside(v) && !pattern.label(v).is_wildcard())
            .map(|v| pattern.label(v))
            .collect();
        node_labels.sort_unstable();
        node_labels.dedup();
        let mut edge_labels = Vec::new();
        let mut wildcard_edge = false;
        for e in pattern.edges().iter().filter(|e| inside(e.src)) {
            if e.label.is_wildcard() {
                wildcard_edge = true;
            } else {
                edge_labels.push(e.label);
            }
        }
        edge_labels.sort_unstable();
        edge_labels.dedup();
        let hosts = |c: u32| {
            let profile = &canon.profiles[c as usize];
            let present = |have: &[LabelId], need: &[LabelId]| {
                need.iter().all(|l| have.binary_search(l).is_ok())
            };
            present(&profile.node_labels, &node_labels)
                && present(&profile.edge_labels, &edge_labels)
                && (!wildcard_edge || profile.has_edge)
        };
        let candidates = canon.index.candidates(pattern.label(pivot));
        let kept = candidates.iter().copied();
        kept.filter(|&z| hosts(canon.component_of(z))).collect()
    }

    /// Labels `1` and `65` (and `2` and `66`) share a signature bit, so a
    /// component offering one and a pattern needing the other get past
    /// the one-word prefilter and must be told apart by the exact test.
    fn arb_label() -> impl Strategy<Value = LabelId> {
        prop_oneof![
            Just(LabelId::WILDCARD),
            Just(LabelId::new(1)),
            Just(LabelId::new(2)),
            Just(LabelId::new(65)),
            Just(LabelId::new(66)),
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
        #[test]
        fn signature_host_filter_keeps_what_the_exact_filter_kept(
            sigma in proptest::collection::vec(arb_pattern(), 1..6),
            probes in proptest::collection::vec(arb_pattern(), 1..4),
        ) {
            let rules = sigma.iter().map(|p| Dependency::new("g", p.clone(), vec![], vec![]));
            let (canon, _) = CanonicalGraph::for_sigma(&DepSet::from_vec(rules.collect()));
            for pattern in sigma.iter().chain(&probes) {
                for pivot in pattern.vars() {
                    prop_assert_eq!(
                        canon.pivot_candidates(pattern, pivot),
                        pivot_candidates_reference(&canon, pattern, pivot),
                        "pattern {:?} pivot {:?}", pattern, pivot
                    );
                }
            }
        }
    }
}
