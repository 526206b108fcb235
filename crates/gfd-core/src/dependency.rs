//! The rule model: dependencies `ϕ = Q[x̄](X → consequence)`.
//!
//! A [`Dependency`] is a graph pattern `Q[x̄]` (topological scope), a
//! premise `X` of attribute literals over the pattern variables, and a
//! [`Consequence`] stating what every match satisfying `X` must have:
//!
//! * [`Consequence::Literals`] — the paper's GFD `Q[x̄](X → Y)` (§III): a
//!   conjunction `Y` of attribute literals;
//! * [`Consequence::Generate`] — graph-generating dependencies (GGDs,
//!   Shimomura et al.): the consequence asserts the *existence* of a
//!   target subgraph — fresh nodes, fresh edges and attribute
//!   assignments, with variable bindings into the premise match — and the
//!   chase *creates* it when no extension of the match realizes it.
//!
//! Every future dependency class (TGDs/EGDs, keys) slots in behind the
//! same enum. A set Σ of dependencies is a [`DepSet`]. The enforcement
//! driver ([`crate::run_reason`]) admits literal consequences only; a Σ
//! with generating rules is reasoned about by the chase (`gfd-chase`),
//! see DESIGN.md §10.

use crate::error::Conflict;
use crate::literal::{Literal, Operand};
use crate::model::is_fresh_id;
use gfd_graph::{
    AttrId, GfdId, MatchIndex, NodeId, Pattern, TopologyView, Value, ValueId, VarId, Vocab,
};
use std::fmt;

/// The reserved attribute used to encode the Boolean constant `false` as a
/// consequence, per the paper: `false` is syntactic sugar for binding the
/// same attribute to two distinct constants.
pub const FALSE_ATTR_NAME: &str = "__false";

/// Does a literal conjunction encode the Boolean constant `false` — two
/// constant literals on the same variable/attribute with distinct
/// constants?
pub fn literals_are_denial(lits: &[Literal]) -> bool {
    for (i, a) in lits.iter().enumerate() {
        for b in &lits[i + 1..] {
            if a.var == b.var && a.attr == b.attr {
                if let (Operand::Const(va), Operand::Const(vb)) = (&a.rhs, &b.rhs) {
                    if va != vb {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// The attribute predicate realization checks call for each assignment
/// literal: detection passes concrete data-graph evaluation, the chase
/// passes `EqRel` deducibility. The literal only references variables
/// already bound in the assignment slice.
pub type AttrPred<'a> = dyn FnMut(&Literal, &[NodeId]) -> bool + 'a;

/// The binding callback [`GenerateConsequence::materialize`] hands each
/// attribute assignment to (the chase binds/merges into its relation).
pub type AttrBind<'a> = dyn FnMut(&Literal, &[NodeId]) -> Result<(), Conflict> + 'a;

/// What a dependency asserts about each premise match.
#[derive(Clone, Debug)]
pub enum Consequence {
    /// A conjunction of attribute literals over the premise variables —
    /// the classic GFD consequence `Y`.
    Literals(Vec<Literal>),
    /// A target subgraph that must exist as an extension of the premise
    /// match — the GGD consequence. Enforcement *generates* the missing
    /// part; detection reports it as a violation with a witness of the
    /// missing subgraph. Boxed: a target pattern is several times the size
    /// of a literal list, and the per-Σ passes of the reasoning set-up
    /// stride over every rule.
    Generate(Box<GenerateConsequence>),
}

impl Consequence {
    /// True iff this is a generating consequence.
    pub fn is_generating(&self) -> bool {
        matches!(self, Consequence::Generate(_))
    }

    /// The literals `Y` of a classic GFD consequence; `None` for a
    /// generating one.
    pub fn literals(&self) -> Option<&[Literal]> {
        match self {
            Consequence::Literals(lits) => Some(lits),
            Consequence::Generate(_) => None,
        }
    }

    /// Size contribution to `|ϕ|`.
    pub fn size(&self) -> usize {
        match self {
            Consequence::Literals(lits) => lits.iter().map(Literal::size).sum(),
            Consequence::Generate(gen) => gen.size(),
        }
    }
}

/// A classic GFD consequence `Y` is just its literals.
impl From<Vec<Literal>> for Consequence {
    fn from(lits: Vec<Literal>) -> Self {
        Consequence::Literals(lits)
    }
}

/// A GGD consequence is just its target.
impl From<GenerateConsequence> for Consequence {
    fn from(gen: GenerateConsequence) -> Self {
        Consequence::Generate(Box::new(gen))
    }
}

/// A generating consequence: the target pattern `Q_t[x̄, ȳ]` of a GGD.
///
/// The target [`Pattern`] extends the premise pattern's variable space:
/// its first [`shared`](GenerateConsequence::shared) variables alias the
/// premise variables (same labels, same display names, **no** premise
/// edges — those are already guaranteed by the match), the remaining
/// variables are *fresh* nodes to find-or-create. `edges()` of the target
/// pattern are the generated edges (between any two target variables),
/// and [`attrs`](GenerateConsequence::attrs) are attribute assignments
/// over the combined variable space.
#[derive(Clone, Debug)]
pub struct GenerateConsequence {
    /// The target pattern: premise variables (nodes only) followed by
    /// fresh variables, with the generated edges.
    pub pattern: Pattern,
    /// Number of leading target variables shared with the premise.
    pub shared: usize,
    /// Attribute assignments over the target variables (`v.A = c` or
    /// `v.A = u.B`).
    pub attrs: Vec<Literal>,
}

impl GenerateConsequence {
    /// Start a target pattern over `premise`: its variables are copied
    /// (labels and names, no edges); add fresh nodes, generated edges and
    /// attribute assignments afterwards.
    pub fn over(premise: &Pattern) -> Self {
        let mut pattern = Pattern::new();
        for v in premise.vars() {
            pattern.add_node(premise.label(v), premise.var_name(v));
        }
        GenerateConsequence {
            shared: premise.node_count(),
            pattern,
            attrs: Vec::new(),
        }
    }

    /// Add a fresh node to generate. Its label must be concrete (the
    /// chase cannot materialize a wildcard-labelled node).
    pub fn add_fresh(&mut self, label: gfd_graph::LabelId, name: impl Into<String>) -> VarId {
        assert!(
            !label.is_wildcard(),
            "generated nodes need a concrete label"
        );
        self.pattern.add_node(label, name)
    }

    /// Add a generated edge between target variables. The label must be
    /// concrete for the same reason as [`add_fresh`](Self::add_fresh).
    pub fn add_edge(&mut self, src: VarId, label: gfd_graph::LabelId, dst: VarId) {
        assert!(
            !label.is_wildcard(),
            "generated edges need a concrete label"
        );
        self.pattern.add_edge(src, label, dst);
    }

    /// Add an attribute assignment.
    pub fn push_attr(&mut self, lit: Literal) {
        self.attrs.push(lit);
    }

    /// The fresh (generated) target variables.
    pub fn fresh_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (self.shared..self.pattern.node_count()).map(VarId::new)
    }

    /// Number of fresh variables.
    pub fn fresh_count(&self) -> usize {
        self.pattern.node_count() - self.shared
    }

    /// Size contribution: fresh nodes + generated edges + attr literals.
    pub fn size(&self) -> usize {
        self.fresh_count()
            + self.pattern.edge_count()
            + self.attrs.iter().map(Literal::size).sum::<usize>()
    }

    fn assert_well_formed(&self, name: &str, premise: &Pattern) {
        assert_eq!(
            self.shared,
            premise.node_count(),
            "GGD `{name}`: target pattern must share every premise variable"
        );
        let n = self.pattern.node_count();
        assert!(
            n >= self.shared,
            "GGD `{name}`: target smaller than premise"
        );
        for v in premise.vars() {
            assert_eq!(
                self.pattern.label(v),
                premise.label(v),
                "GGD `{name}`: shared variable {v} changes label"
            );
        }
        for v in self.fresh_vars() {
            assert!(
                !self.pattern.label(v).is_wildcard(),
                "GGD `{name}`: generated node {v} has a wildcard label"
            );
        }
        for e in self.pattern.edges() {
            assert!(
                !e.label.is_wildcard(),
                "GGD `{name}`: generated edge has a wildcard label"
            );
        }
        for lit in &self.attrs {
            for v in lit.vars() {
                assert!(
                    v.index() < n,
                    "GGD `{name}` attr assignment references unknown variable {v}"
                );
            }
        }
    }

    /// Is the consequence *realized* at premise match `m`: does some
    /// extension of `m` to the fresh variables exist in the indexed graph
    /// such that every generated edge is present and every attribute
    /// assignment passes `attr_ok`? `asn` is a buffer the caller lends for
    /// the extension (the chase keeps one per worker).
    ///
    /// `attr_ok` abstracts the attribute semantics: detection checks
    /// concrete data-graph values, the chase checks deducibility in the
    /// equivalence relation. The literal handed to it only references
    /// variables already assigned in the slice.
    pub fn realized<I: MatchIndex>(
        &self,
        index: &I,
        m: &[NodeId],
        asn: &mut Vec<NodeId>,
        attr_ok: &mut AttrPred,
    ) -> bool {
        let total = self.pattern.node_count();
        debug_assert!(m.len() >= self.shared);
        asn.clear();
        asn.extend_from_slice(&m[..self.shared]);
        asn.resize(total, NodeId::new(0));
        // Each structural/attribute check runs as soon as the highest
        // variable it mentions is bound. A target has a handful of each,
        // so they are filtered per step: no buckets built per call.
        let highest = |lit: &Literal| lit.vars().map(VarId::index).max().unwrap_or(0);
        let check_at = |v: usize, asn: &[NodeId], attr_ok: &mut AttrPred| -> bool {
            let view = index.view();
            (self.pattern.edges().iter())
                .filter(|e| e.src.index().max(e.dst.index()) == v)
                .all(|e| view.has_edge_pattern(asn[e.src.index()], e.label, asn[e.dst.index()]))
                && (self.attrs.iter().filter(|lit| highest(lit) == v)).all(|lit| attr_ok(lit, asn))
        };

        // Checks fully determined by the shared prefix run once, up front.
        for v in 0..self.shared {
            if !check_at(v, asn, attr_ok) {
                return false;
            }
        }
        if total == self.shared {
            return true;
        }

        // Backtracking extension search over the fresh variables.
        fn search<I: MatchIndex>(
            gen: &GenerateConsequence,
            index: &I,
            asn: &mut [NodeId],
            v: usize,
            check_at: &dyn Fn(usize, &[NodeId], &mut AttrPred) -> bool,
            attr_ok: &mut AttrPred,
        ) -> bool {
            if v == gen.pattern.node_count() {
                return true;
            }
            for &cand in index.candidates(gen.pattern.label(VarId::new(v))) {
                asn[v] = cand;
                if check_at(v, asn, attr_ok) && search(gen, index, asn, v + 1, check_at, attr_ok) {
                    return true;
                }
            }
            false
        }
        search(self, index, asn, self.shared, &check_at, attr_ok)
    }

    /// Materialize the consequence at premise match `m`: create one node
    /// per fresh variable, add every generated edge, then hand each
    /// attribute assignment to `bind` with the combined assignment. `asn`
    /// is a buffer the caller lends; it ends up holding that assignment,
    /// so the fresh nodes are `asn[self.shared..]` (in fresh-variable
    /// order).
    pub fn materialize(
        &self,
        graph: &mut gfd_graph::Graph,
        m: &[NodeId],
        asn: &mut Vec<NodeId>,
        bind: &mut AttrBind,
    ) -> Result<(), Conflict> {
        asn.clear();
        asn.extend_from_slice(&m[..self.shared]);
        for v in self.fresh_vars() {
            asn.push(graph.add_node(self.pattern.label(v)));
        }
        for e in self.pattern.edges() {
            graph.add_edge(asn[e.src.index()], e.label, asn[e.dst.index()]);
        }
        for lit in &self.attrs {
            bind(lit, asn)?;
        }
        Ok(())
    }
}

/// Is a generating consequence deducible under the equivalence relation
/// `eq` at match `m`? Attribute assignments are checked by class
/// deduction; the structural part is probed on `index`. `asn` is the
/// extension buffer [`GenerateConsequence::realized`] borrows.
pub fn generate_deducible<I: MatchIndex>(
    eq: &crate::eq::EqRel,
    index: &I,
    gen: &GenerateConsequence,
    m: &[NodeId],
    asn: &mut Vec<NodeId>,
) -> bool {
    gen.realized(index, m, asn, &mut |lit, asn| {
        let k1 = (asn[lit.var.index()], lit.attr);
        match &lit.rhs {
            Operand::Const(c) => eq.deduces_const(k1, *c),
            Operand::Attr(v2, a2) => eq.deduces_eq(k1, (asn[v2.index()], *a2)),
        }
    })
}

/// A dependency `ϕ = Q[x̄](X → consequence)`: a graph pattern `Q[x̄]`
/// (topological scope), premise literals `X` over the pattern variables,
/// and a consequence — the literals `Y` of the paper's GFDs (§III) or a
/// generated target subgraph.
#[derive(Clone, Debug)]
pub struct Dependency {
    /// Human-readable name (e.g. `phi1`).
    pub name: String,
    /// The premise pattern `Q[x̄]`.
    pub pattern: Pattern,
    /// The premise literals `X` (empty = always satisfied).
    pub premise: Vec<Literal>,
    /// What every match satisfying `X` must have.
    pub consequence: Consequence,
}

impl Dependency {
    /// Build a dependency, checking well-formedness (literals reference
    /// pattern variables; generating targets extend the premise). A
    /// classic GFD passes its consequence literals `Y` as a plain
    /// `Vec<Literal>` (empty = trivially satisfied), a GGD its
    /// [`GenerateConsequence`].
    pub fn new(
        name: impl Into<String>,
        pattern: Pattern,
        premise: Vec<Literal>,
        consequence: impl Into<Consequence>,
    ) -> Self {
        let dep = Dependency {
            name: name.into(),
            pattern,
            premise,
            consequence: consequence.into(),
        };
        dep.assert_well_formed();
        dep
    }

    /// Build a dependency whose consequence is the Boolean constant
    /// `false` (e.g. the paper's ϕ1 — "this pattern must not occur with
    /// X").
    ///
    /// Encoded, per §III, as two constant literals assigning distinct
    /// constants to the same fresh attribute of the first variable.
    pub fn with_false_consequence(
        name: impl Into<String>,
        pattern: Pattern,
        premise: Vec<Literal>,
        vocab: &mut Vocab,
    ) -> Self {
        let attr = vocab.attr(FALSE_ATTR_NAME);
        let x = VarId::new(0);
        let consequence = vec![
            Literal::eq_const(x, attr, Value::int(0)),
            Literal::eq_const(x, attr, Value::int(1)),
        ];
        Dependency::new(name, pattern, premise, consequence)
    }

    fn assert_well_formed(&self) {
        let n = self.pattern.node_count();
        assert!(n > 0, "dependency `{}` has an empty pattern", self.name);
        let lits = match &self.consequence {
            Consequence::Literals(lits) => lits.as_slice(),
            Consequence::Generate(gen) => {
                gen.assert_well_formed(&self.name, &self.pattern);
                &[]
            }
        };
        for lit in self.premise.iter().chain(lits) {
            for v in lit.vars() {
                assert!(
                    v.index() < n,
                    "dependency `{}` references unknown variable {v}",
                    self.name
                );
            }
        }
    }

    /// True iff the consequence generates.
    pub fn is_generating(&self) -> bool {
        self.consequence.is_generating()
    }

    /// True iff the premise is the empty set (`∅ → …`): such rules are
    /// enforced unconditionally and are processed first by the algorithms.
    pub fn has_empty_premise(&self) -> bool {
        self.premise.is_empty()
    }

    /// True iff the consequence encodes the Boolean constant `false`
    /// ([`literals_are_denial`]). Generating consequences are never
    /// denials.
    pub fn is_denial(&self) -> bool {
        self.consequence.literals().is_some_and(literals_are_denial)
    }

    /// The size `|ϕ| = |Q| + |X| + |Y|` used by the small-model bounds.
    pub fn size(&self) -> usize {
        self.pattern.size()
            + self.premise.iter().map(Literal::size).sum::<usize>()
            + self.consequence.size()
    }

    /// Attribute names mentioned in the premise.
    pub fn premise_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.premise.iter().flat_map(Literal::attrs)
    }

    /// Render with names resolved through `vocab`.
    pub fn display<'a>(&'a self, vocab: &'a Vocab) -> DependencyDisplay<'a> {
        DependencyDisplay { dep: self, vocab }
    }
}

/// Helper for rendering a dependency with human-readable names.
pub struct DependencyDisplay<'a> {
    dep: &'a Dependency,
    vocab: &'a Vocab,
}

impl fmt::Display for DependencyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.dep;
        write!(f, "{}: Q[", d.name)?;
        for (i, v) in d.pattern.vars().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}:{}",
                d.pattern.var_name(v),
                self.vocab.label_name(d.pattern.label(v))
            )?;
        }
        write!(f, "](")?;
        if d.premise.is_empty() {
            write!(f, "∅")?;
        }
        for (i, l) in d.premise.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{}", l.display(&d.pattern, self.vocab))?;
        }
        write!(f, " → ")?;
        match &d.consequence {
            Consequence::Literals(_) if d.is_denial() => write!(f, "false")?,
            Consequence::Literals(lits) if lits.is_empty() => write!(f, "true")?,
            Consequence::Literals(lits) => {
                for (i, l) in lits.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{}", l.display(&d.pattern, self.vocab))?;
                }
            }
            Consequence::Generate(gen) => {
                write!(f, "CREATE ")?;
                let mut first = true;
                let mut sep = |f: &mut fmt::Formatter<'_>| {
                    if std::mem::take(&mut first) {
                        Ok(())
                    } else {
                        write!(f, ", ")
                    }
                };
                for v in gen.fresh_vars() {
                    sep(f)?;
                    write!(
                        f,
                        "{}:{}",
                        gen.pattern.var_name(v),
                        self.vocab.label_name(gen.pattern.label(v))
                    )?;
                }
                for e in gen.pattern.edges() {
                    sep(f)?;
                    write!(
                        f,
                        "{} -{}-> {}",
                        gen.pattern.var_name(e.src),
                        self.vocab.label_name(e.label),
                        gen.pattern.var_name(e.dst)
                    )?;
                }
                for l in &gen.attrs {
                    sep(f)?;
                    write!(f, "{}", l.display(&gen.pattern, self.vocab))?;
                }
            }
        }
        write!(f, ")")
    }
}

/// The pre-merge name of [`Dependency`], alive only because `gfdbench/`
/// (which a code PR may not edit) imports it.
pub type Gfd = Dependency; // gfdbench-pin: deleted by ROADMAP [bench]

/// The pre-merge name of [`DepSet`], alive only because `gfdbench/`
/// imports it.
pub type GfdSet = DepSet; // gfdbench-pin: deleted by ROADMAP [bench]

/// A set Σ of dependencies, the input of every analysis. Rules are
/// identified by their position ([`GfdId`]).
#[derive(Clone, Debug, Default)]
pub struct DepSet {
    deps: Vec<Dependency>,
    /// How many of `deps` have a generating consequence.
    generating: usize,
    /// The distinct constants of `deps` spelled like a fresh constant
    /// ([`crate::model::FRESH_PREFIX`]), recorded as rules enter.
    fresh_spelled: Vec<ValueId>,
}

impl DepSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of dependencies.
    pub fn from_vec(deps: Vec<Dependency>) -> Self {
        let mut set = DepSet::default();
        for dep in deps {
            set.push(dep);
        }
        set
    }

    /// The identity — what is left of the pre-merge set conversion, alive
    /// only because `gfdbench/` calls it; ROADMAP [bench]
    /// deletes it.
    pub fn from_gfds(sigma: DepSet) -> Self /* gfdbench-pin */ {
        sigma
    }

    /// The rules, in id order — [`DepSet::from_vec`] of the result is the
    /// same set (how `gfd minimize` takes a rule out and puts it back).
    pub fn into_vec(self) -> Vec<Dependency> {
        self.deps
    }

    /// Add a dependency, returning its id.
    pub fn push(&mut self, dep: Dependency) -> GfdId {
        let id = GfdId::new(self.deps.len());
        self.generating += usize::from(dep.is_generating());
        let consequence = match &dep.consequence {
            Consequence::Literals(lits) => lits.as_slice(),
            Consequence::Generate(gen) => &gen.attrs,
        };
        for lit in dep.premise.iter().chain(consequence) {
            if let Operand::Const(c) = lit.rhs {
                if is_fresh_id(c) && !self.fresh_spelled.contains(&c) {
                    self.fresh_spelled.push(c);
                }
            }
        }
        self.deps.push(dep);
        id
    }

    /// The dependency with the given id.
    pub fn get(&self, id: GfdId) -> &Dependency {
        &self.deps[id.index()]
    }

    /// Number of dependencies (the paper's `|Σ|` count parameter).
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// True iff any dependency has a generating consequence (the routing
    /// predicate: literal-only sets run the enforcement driver, the rest
    /// the chase). O(1): the set counts its generating rules as they
    /// enter.
    pub fn has_generating(&self) -> bool {
        self.generating > 0
    }

    /// The constants of Σ spelled like a fresh constant `⊥n`: a model
    /// read-out skips them when it numbers fresh constants
    /// ([`crate::populate_model`]), so they stay fresh for Σ.
    pub fn fresh_spelled(&self) -> &[ValueId] {
        &self.fresh_spelled
    }

    /// Iterate `(id, dependency)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GfdId, &Dependency)> {
        self.deps
            .iter()
            .enumerate()
            .map(|(i, d)| (GfdId::new(i), d))
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &[Dependency] {
        &self.deps
    }

    /// Total size `|Σ| = Σ |ϕ|` used by the small-model bounds.
    pub fn total_size(&self) -> usize {
        self.deps.iter().map(Dependency::size).sum()
    }

    /// Render every dependency on its own line.
    pub fn display_all(&self, vocab: &Vocab) -> String {
        let mut s = String::new();
        for d in &self.deps {
            s.push_str(&d.display(vocab).to_string());
            s.push('\n');
        }
        s
    }
}

impl FromIterator<Dependency> for DepSet {
    fn from_iter<T: IntoIterator<Item = Dependency>>(iter: T) -> Self {
        DepSet::from_vec(iter.into_iter().collect())
    }
}

impl std::ops::Index<GfdId> for DepSet {
    type Output = Dependency;
    fn index(&self, id: GfdId) -> &Dependency {
        &self.deps[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eq::EqRel;
    use gfd_graph::{Graph, LabelIndex, Value, ValueId, Vocab};

    fn person_meeting(vocab: &mut Vocab) -> Dependency {
        let person = vocab.label("person");
        let meeting = vocab.label("meeting");
        let knows = vocab.label("knows");
        let attends = vocab.label("attends");
        let city = vocab.attr("city");
        let mut p = Pattern::new();
        let x = p.add_node(person, "x");
        let y = p.add_node(person, "y");
        p.add_edge(x, knows, y);
        let mut gen = GenerateConsequence::over(&p);
        let m = gen.add_fresh(meeting, "m");
        gen.add_edge(x, attends, m);
        gen.add_edge(y, attends, m);
        gen.push_attr(Literal::eq_attr(m, city, x, city));
        Dependency::new("meetup", p, vec![Literal::eq_attr(x, city, y, city)], gen)
    }

    fn simple_pattern(vocab: &mut Vocab) -> Pattern {
        let mut p = Pattern::new();
        let x = p.add_node(vocab.label("place"), "x");
        let y = p.add_node(vocab.label("place"), "y");
        p.add_edge(x, vocab.label("locateIn"), y);
        p
    }

    #[test]
    fn build_and_inspect() {
        let mut vocab = Vocab::new();
        let p = simple_pattern(&mut vocab);
        let a = vocab.attr("pop");
        let g = Dependency::new(
            "phi",
            p,
            vec![],
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
        );
        assert!(g.has_empty_premise());
        assert!(!g.is_denial());
        assert!(!g.is_generating());
        // |Q| = 2 nodes + 1 edge = 3, |X| = 0, |Y| = 2.
        assert_eq!(g.size(), 5);
    }

    #[test]
    fn false_consequence_is_denial() {
        let mut vocab = Vocab::new();
        let p = simple_pattern(&mut vocab);
        let g = Dependency::with_false_consequence("phi1", p, vec![], &mut vocab);
        assert!(g.is_denial());
        assert_eq!(g.consequence.literals().map(<[_]>::len), Some(2));
        let shown = g.display(&vocab).to_string();
        assert!(shown.contains("false"), "{shown}");
        assert!(shown.contains("∅"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn literal_on_foreign_variable_panics() {
        let mut vocab = Vocab::new();
        let p = simple_pattern(&mut vocab);
        let a = vocab.attr("pop");
        let _ = Dependency::new(
            "bad",
            p,
            vec![],
            vec![Literal::eq_const(VarId::new(9), a, 1i64)],
        );
    }

    #[test]
    fn display_round_trips_names() {
        let mut vocab = Vocab::new();
        let p = simple_pattern(&mut vocab);
        let a = vocab.attr("pop");
        let g = Dependency::new(
            "phi",
            p,
            vec![Literal::eq_const(VarId::new(0), a, 2i64)],
            vec![Literal::eq_attr(VarId::new(0), a, VarId::new(1), a)],
        );
        let s = g.display(&vocab).to_string();
        assert!(s.contains("x.pop = 2"), "{s}");
        assert!(s.contains("x.pop = y.pop"), "{s}");
        assert!(s.contains("x:place"), "{s}");
    }

    /// The literal arm of `Display`, byte for byte as the pre-merge GFD
    /// type printed it.
    #[test]
    fn literal_display_is_golden() {
        let mut vocab = Vocab::new();
        let p = simple_pattern(&mut vocab);
        let (x, y) = (VarId::new(0), VarId::new(1));
        let pop = vocab.attr("pop");
        let name = vocab.attr("name");
        let empty_premise = Dependency::new(
            "phi",
            p.clone(),
            vec![],
            vec![Literal::eq_const(x, pop, 1i64)],
        );
        let denial = Dependency::with_false_consequence(
            "phi1",
            p.clone(),
            vec![Literal::eq_const(x, pop, 2i64)],
            &mut vocab,
        );
        let const_and_var = Dependency::new(
            "phi2",
            p,
            vec![
                Literal::eq_const(x, name, "Bamburi"),
                Literal::eq_attr(x, pop, y, pop),
            ],
            vec![
                Literal::eq_const(y, pop, 3i64),
                Literal::eq_attr(x, name, y, name),
            ],
        );
        let shown = |d: &Dependency| d.display(&vocab).to_string();
        assert_eq!(
            shown(&empty_premise),
            "phi: Q[x:place, y:place](∅ → x.pop = 1)"
        );
        assert_eq!(
            shown(&denial),
            "phi1: Q[x:place, y:place](x.pop = 2 → false)"
        );
        assert_eq!(
            shown(&const_and_var),
            "phi2: Q[x:place, y:place](x.name = \"Bamburi\" ∧ x.pop = y.pop → y.pop = 3 ∧ x.name = y.name)"
        );
    }

    #[test]
    fn attr_iterators() {
        let mut vocab = Vocab::new();
        let p = simple_pattern(&mut vocab);
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let g = Dependency::new(
            "phi",
            p,
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            vec![Literal::eq_attr(VarId::new(0), b, VarId::new(1), a)],
        );
        assert_eq!(g.premise_attrs().collect::<Vec<_>>(), vec![a]);
        let y = g.consequence.literals().expect("a literal consequence");
        assert_eq!(y[0].attrs().collect::<Vec<_>>(), vec![b, a]);
    }

    fn unary_rule(vocab: &mut Vocab, name: &str) -> Dependency {
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "x");
        let a = vocab.attr("a");
        Dependency::new(
            name,
            p,
            vec![],
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
        )
    }

    #[test]
    fn push_get_iterate() {
        let mut vocab = Vocab::new();
        let mut sigma = DepSet::new();
        let id0 = sigma.push(unary_rule(&mut vocab, "a"));
        let id1 = sigma.push(unary_rule(&mut vocab, "b"));
        assert_eq!(sigma.len(), 2);
        assert_eq!(sigma.get(id0).name, "a");
        assert_eq!(sigma[id1].name, "b");
        let names: Vec<&str> = sigma.iter().map(|(_, g)| g.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(sigma.total_size(), 2 * (1 + 2));
        assert!(sigma.display_all(&vocab).contains("a: Q["));
    }

    #[test]
    fn from_iterator() {
        let mut vocab = Vocab::new();
        let sigma: DepSet = (0..3)
            .map(|i| unary_rule(&mut vocab, &format!("g{i}")))
            .collect();
        assert_eq!(sigma.len(), 3);
        assert!(!sigma.is_empty());
        assert!(!sigma.has_generating());
    }

    /// A generating rule has no literal form to lower to.
    #[test]
    fn generating_set_cannot_lower() {
        let mut vocab = Vocab::new();
        let deps = DepSet::from_vec(vec![person_meeting(&mut vocab)]);
        assert!(deps.has_generating());
        assert!(deps.get(GfdId::new(0)).consequence.literals().is_none());
        assert!(!deps.get(GfdId::new(0)).is_denial());
    }

    /// Every way a rule enters a set keeps the generating count behind the
    /// O(1) `has_generating`, and `into_vec` / `from_vec` is the identity.
    #[test]
    fn generating_rules_are_counted_on_every_way_in() {
        let mut vocab = Vocab::new();
        let mixed = |vocab: &mut Vocab| vec![unary_rule(vocab, "lit"), person_meeting(vocab)];
        assert!(DepSet::from_vec(mixed(&mut vocab)).has_generating());
        assert!(mixed(&mut vocab)
            .into_iter()
            .collect::<DepSet>()
            .has_generating());
        let mut pushed = DepSet::new();
        pushed.push(unary_rule(&mut vocab, "lit"));
        assert!(!pushed.has_generating());
        pushed.push(person_meeting(&mut vocab));
        assert!(pushed.has_generating());

        let mut rules = pushed.into_vec();
        assert_eq!(rules.len(), 2);
        rules.pop();
        let literal = DepSet::from_vec(rules);
        assert!(!literal.has_generating());
        assert_eq!(literal[GfdId::new(0)].name, "lit");
    }

    #[test]
    fn realization_finds_existing_extension() {
        let mut vocab = Vocab::new();
        let dep = person_meeting(&mut vocab);
        let Consequence::Generate(gen) = &dep.consequence else {
            unreachable!()
        };
        let person = vocab.label("person");
        let meeting = vocab.label("meeting");
        let knows = vocab.label("knows");
        let attends = vocab.label("attends");
        let city = vocab.attr("city");

        let mut g = Graph::new();
        let a = g.add_node(person);
        let b = g.add_node(person);
        g.add_edge(a, knows, b);
        g.set_attr(a, city, Value::str("nbo"));
        g.set_attr(b, city, Value::str("nbo"));
        let m: Vec<NodeId> = vec![a, b];

        // No meeting node yet: unrealized.
        let index = LabelIndex::build(&g);
        let mut concrete =
            |lit: &Literal, asn: &[NodeId]| crate::validate::literal_holds(&g, lit, asn);
        assert!(!gen.realized(&index, &m, &mut Vec::new(), &mut concrete));

        // Add the meeting with both edges and the right city: realized.
        let mt = g.add_node(meeting);
        g.add_edge(a, attends, mt);
        g.add_edge(b, attends, mt);
        g.set_attr(mt, city, Value::str("nbo"));
        let index = LabelIndex::build(&g);
        let mut concrete =
            |lit: &Literal, asn: &[NodeId]| crate::validate::literal_holds(&g, lit, asn);
        assert!(gen.realized(&index, &m, &mut Vec::new(), &mut concrete));

        // Wrong city on the meeting: unrealized again.
        g.set_attr(mt, city, Value::str("mba"));
        let index = LabelIndex::build(&g);
        let mut concrete =
            |lit: &Literal, asn: &[NodeId]| crate::validate::literal_holds(&g, lit, asn);
        assert!(!gen.realized(&index, &m, &mut Vec::new(), &mut concrete));
    }

    #[test]
    fn materialize_creates_the_target() {
        let mut vocab = Vocab::new();
        let dep = person_meeting(&mut vocab);
        let Consequence::Generate(gen) = &dep.consequence else {
            unreachable!()
        };
        let person = vocab.label("person");
        let knows = vocab.label("knows");
        let city = vocab.attr("city");

        let mut g = Graph::new();
        let a = g.add_node(person);
        let b = g.add_node(person);
        g.add_edge(a, knows, b);
        let m: Vec<NodeId> = vec![a, b];

        let mut eq = EqRel::new();
        eq.bind((a, city), ValueId::of("nbo")).unwrap();
        let mut asn = Vec::new();
        gen.materialize(&mut g, &m, &mut asn, &mut |lit, asn| {
            let k1 = (asn[lit.var.index()], lit.attr);
            match &lit.rhs {
                Operand::Const(c) => eq.bind(k1, *c).map(|_| ()),
                Operand::Attr(v2, a2) => eq.merge(k1, (asn[v2.index()], *a2)).map(|_| ()),
            }
        })
        .unwrap();
        let fresh = &asn[gen.shared..];
        assert_eq!(fresh.len(), 1);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        // The generated meeting's city joined x's class.
        assert!(eq.deduces_const((fresh[0], city), ValueId::of("nbo")));
        // Now deducible under the relation.
        let index = LabelIndex::build(&g);
        assert!(generate_deducible(&eq, &index, gen, &m, &mut Vec::new()));
    }

    #[test]
    fn trivial_generate_is_always_realized() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let mut p = Pattern::new();
        p.add_node(t, "x");
        let gen = GenerateConsequence::over(&p);
        let mut g = Graph::new();
        let n = g.add_node(t);
        let index = LabelIndex::build(&g);
        assert!(gen.realized(&index, &[n], &mut Vec::new(), &mut |_, _| false));
    }

    #[test]
    #[should_panic(expected = "concrete label")]
    fn wildcard_fresh_label_rejected() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let mut p = Pattern::new();
        p.add_node(t, "x");
        let mut gen = GenerateConsequence::over(&p);
        gen.add_fresh(gfd_graph::LabelId::WILDCARD, "y");
    }

    #[test]
    fn display_mentions_create() {
        let mut vocab = Vocab::new();
        let dep = person_meeting(&mut vocab);
        let s = dep.display(&vocab).to_string();
        assert!(s.contains("CREATE"), "{s}");
        assert!(s.contains("m:meeting"), "{s}");
        assert!(s.contains("x.city = y.city"), "{s}");
    }
}
