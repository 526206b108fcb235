//! The GED constraint store: node merging plus an order network.
//!
//! [`GedStore`] generalizes `gfd-core`'s equivalence relation `Eq` in two
//! directions required by GEDs:
//!
//! * **node merging** — id literals `x.id = y.id` quotient the canonical
//!   graph; the store keeps a union-find over nodes, with label
//!   unification (wildcard ⊔ concrete = concrete; two distinct concrete
//!   labels clash);
//! * **order constraints** — attribute classes live in an [`OrderNet`]
//!   instead of a constants-only equivalence relation, so `<, ≤, ≠`
//!   facts accumulate and are checked by the strict-cycle criterion.
//!   Constants enter the network by their interned [`gfd_graph::ValueId`].
//!
//! Every literal query resolves its operands in one place (`operands`):
//! the two order variables the literal compares at a match, creating
//! missing attribute classes only when asserting (the paper's Expand).
//! Node merges become a graph in one place too: [`Quotient`], which the
//! enforcement scan, witness extraction and entity resolution
//! ([`crate::keys`]) all build through the crate's one union-find.
//!
//! Everything is monotone: facts are only ever added, which is what the
//! backtracking searches in [`crate::sat`] and [`crate::imp`] rely on
//! (they clone the store at choice points).

use crate::ged::{CmpOp, GedLiteral};
use crate::order::{OrderConflict, OrderNet, OrderVar};
use gfd_graph::{AttrId, Graph, LabelId, NodeId};
use rustc_hash::FxHashMap;
use std::fmt;

/// Union-find over node indices with path halving. The caller picks
/// which root survives a union ([`NodeUf::link`]).
#[derive(Clone, Debug)]
pub(crate) struct NodeUf(Vec<u32>);

impl NodeUf {
    /// `n` singleton classes.
    pub(crate) fn new(n: usize) -> Self {
        NodeUf((0..n as u32).collect())
    }

    /// Root of `n`'s class.
    pub(crate) fn find(&mut self, n: NodeId) -> NodeId {
        let p = &mut self.0;
        let mut i = n.index();
        while p[i] as usize != i {
            p[i] = p[p[i] as usize];
            i = p[i] as usize;
        }
        NodeId::new(i)
    }

    /// Hang root `child` under root `root`.
    pub(crate) fn link(&mut self, child: NodeId, root: NodeId) {
        self.0[child.index()] = root.index() as u32;
    }
}

/// A graph quotiented by node merges: one node per class.
#[derive(Clone, Debug)]
pub struct Quotient {
    /// The quotient graph; edges are mapped through [`Quotient::of`].
    pub graph: Graph,
    /// Class node of each original node.
    pub of: Vec<NodeId>,
    /// The first original node of each class node.
    pub rep: Vec<NodeId>,
}

impl Quotient {
    /// Quotient `base` under `uf`; a class node carries `label(root)`.
    /// Class nodes are numbered in order of their first original node.
    pub(crate) fn build(base: &Graph, uf: &mut NodeUf, label: impl Fn(NodeId) -> LabelId) -> Self {
        let unset = NodeId::new(u32::MAX as usize);
        let mut q = Quotient {
            graph: Graph::new(),
            of: vec![unset; base.node_count()],
            rep: Vec::new(),
        };
        for v in base.nodes() {
            let root = uf.find(v);
            if q.of[root.index()] == unset {
                q.of[root.index()] = q.graph.add_node(label(root));
                q.rep.push(v);
            }
            q.of[v.index()] = q.of[root.index()];
        }
        for (src, label, dst) in base.edges() {
            q.graph
                .add_edge(q.of[src.index()], label, q.of[dst.index()]);
        }
        q
    }
}

/// A conflict raised by the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreConflict {
    /// The order network became inconsistent.
    Order(OrderConflict),
    /// Two nodes with distinct concrete labels were merged.
    LabelClash(LabelId, LabelId),
}

impl fmt::Display for StoreConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreConflict::Order(c) => write!(f, "order conflict: {c}"),
            StoreConflict::LabelClash(a, b) => {
                write!(f, "merged nodes with incompatible labels {a:?} / {b:?}")
            }
        }
    }
}

impl From<OrderConflict> for StoreConflict {
    fn from(c: OrderConflict) -> Self {
        StoreConflict::Order(c)
    }
}

/// The constraint store over a fixed set of canonical-graph nodes.
#[derive(Clone, Debug)]
pub struct GedStore {
    /// Node merges; the root of a class carries its label and attributes.
    uf: NodeUf,
    /// Label of each *root* (unified under wildcard subsumption).
    label: Vec<LabelId>,
    /// Attribute class per (root, attribute).
    attr_vars: FxHashMap<(u32, AttrId), OrderVar>,
    /// The order network over attribute classes and constants.
    net: OrderNet,
    /// Bumped on every mutation; lets fixpoint loops detect quiescence.
    version: u64,
}

impl GedStore {
    /// A store over the nodes of `graph` (initially all distinct).
    pub fn new(graph: &Graph) -> Self {
        GedStore {
            uf: NodeUf::new(graph.node_count()),
            label: graph.nodes().map(|v| graph.label(v)).collect(),
            attr_vars: FxHashMap::default(),
            net: OrderNet::new(),
            version: 0,
        }
    }

    /// The mutation counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Representative of `n`'s merge class.
    pub fn find(&mut self, n: NodeId) -> NodeId {
        self.uf.find(n)
    }

    /// Are `a` and `b` merged?
    pub fn same_node(&mut self, a: NodeId, b: NodeId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Merge the classes of `a` and `b`. Returns `Ok(true)` when the store
    /// changed, `Ok(false)` when they were already merged.
    pub fn merge_nodes(&mut self, a: NodeId, b: NodeId) -> Result<bool, StoreConflict> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        // Unify labels under wildcard subsumption.
        let la = self.label[ra.index()];
        let lb = self.label[rb.index()];
        let unified = if la == lb || lb.is_wildcard() {
            la
        } else if la.is_wildcard() {
            lb
        } else {
            return Err(StoreConflict::LabelClash(la, lb));
        };
        // ra becomes the root.
        self.uf.link(rb, ra);
        self.label[ra.index()] = unified;
        // Re-home rb's attribute classes, equating duplicates.
        let moved: Vec<(AttrId, OrderVar)> = self
            .attr_vars
            .iter()
            .filter(|((root, _), _)| *root == rb.index() as u32)
            .map(|((_, attr), var)| (*attr, *var))
            .collect();
        for (attr, var) in moved {
            self.attr_vars.remove(&(rb.index() as u32, attr));
            match self.attr_vars.entry((ra.index() as u32, attr)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.net.assert_cmp(*e.get(), CmpOp::Eq, var);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(var);
                }
            }
        }
        self.version += 1;
        self.net.check().map_err(StoreConflict::from)?;
        Ok(true)
    }

    /// The order variable of attribute `attr` at node `n`'s class,
    /// creating it on first use (the "generate new attributes" behaviour
    /// of the paper's Expand).
    pub fn attr_var(&mut self, n: NodeId, attr: AttrId) -> OrderVar {
        let root = self.find(n).index() as u32;
        if let Some(&v) = self.attr_vars.get(&(root, attr)) {
            return v;
        }
        let v = self.net.new_var();
        self.attr_vars.insert((root, attr), v);
        self.version += 1;
        v
    }

    /// Direct access to the order network.
    pub fn net(&self) -> &OrderNet {
        &self.net
    }

    /// Iterate the attribute classes as `(root node, attribute, variable)`
    /// triples. Keys are maintained on current roots across merges.
    pub fn attr_assignments(&self) -> impl Iterator<Item = (NodeId, AttrId, OrderVar)> + '_ {
        self.attr_vars
            .iter()
            .map(|(&(root, attr), &var)| (NodeId::new(root as usize), attr, var))
    }

    /// The two order variables an attribute literal compares at match `m`
    /// (variable `i` ↦ `m[i]`), with its operator. A missing attribute
    /// class is created when `create` holds and gives `None` otherwise;
    /// an id literal compares nodes, not variables, and gives `None`.
    fn operands(
        &mut self,
        lit: &GedLiteral,
        m: &[NodeId],
        create: bool,
    ) -> Option<(OrderVar, CmpOp, OrderVar)> {
        let class = |store: &mut Self, var: gfd_graph::VarId, attr| {
            let n = m[var.index()];
            if create {
                return Some(store.attr_var(n, attr));
            }
            let root = store.find(n).index() as u32;
            store.attr_vars.get(&(root, attr)).copied()
        };
        match *lit {
            GedLiteral::Id { .. } => None,
            GedLiteral::AttrConst {
                var,
                attr,
                op,
                value,
            } => Some((class(self, var, attr)?, op, self.net.const_var(value))),
            GedLiteral::AttrAttr {
                var,
                attr,
                op,
                other_var,
                other_attr,
            } => Some((
                class(self, var, attr)?,
                op,
                class(self, other_var, other_attr)?,
            )),
        }
    }

    /// Assert a literal at match `m`. Returns `Ok(true)` when new
    /// information was added.
    pub fn assert_literal(
        &mut self,
        lit: &GedLiteral,
        m: &[NodeId],
    ) -> Result<bool, StoreConflict> {
        if let GedLiteral::Id { left, right } = *lit {
            return self.merge_nodes(m[left.index()], m[right.index()]);
        }
        let (a, op, b) = self.operands(lit, m, true).expect("attribute literal");
        self.assert_cmp_tracked(a, op, b)
    }

    /// Assert the negation of an (attribute) literal. Panics on id
    /// literals — node classes are separated by construction, never by
    /// assertion.
    pub fn assert_negation(
        &mut self,
        lit: &GedLiteral,
        m: &[NodeId],
    ) -> Result<bool, StoreConflict> {
        let (a, op, b) = self
            .operands(lit, m, true)
            .expect("id literals are falsified by keeping nodes distinct, not asserted");
        self.assert_cmp_tracked(a, op.negate(), b)
    }

    /// Assert `a op b`, skipping when already entailed; checks consistency.
    fn assert_cmp_tracked(
        &mut self,
        a: OrderVar,
        op: CmpOp,
        b: OrderVar,
    ) -> Result<bool, StoreConflict> {
        if self.net.entails(a, op, b) {
            return Ok(false);
        }
        self.net.assert_cmp(a, op, b);
        self.version += 1;
        self.net.check().map_err(StoreConflict::from)?;
        Ok(true)
    }

    /// Is the literal entailed at match `m`?
    ///
    /// Attribute literals over classes that do not yet exist are *not*
    /// entailed (the attribute may simply be absent in a model).
    pub fn literal_entailed(&mut self, lit: &GedLiteral, m: &[NodeId]) -> bool {
        if let GedLiteral::Id { left, right } = *lit {
            return self.same_node(m[left.index()], m[right.index()]);
        }
        self.operands(lit, m, false)
            .is_some_and(|(a, op, b)| self.net.entails(a, op, b))
    }

    /// Is the *negation* of the literal entailed at `m`? Never for an id
    /// literal: a merge is never retracted, so it has no negation in the
    /// store.
    pub fn literal_refuted(&mut self, lit: &GedLiteral, m: &[NodeId]) -> bool {
        self.operands(lit, m, false)
            .is_some_and(|(a, op, b)| self.net.entails(a, op.negate(), b))
    }

    /// Does the literal mention only attribute classes that already exist
    /// (so that omission cannot falsify it)?
    pub fn literal_grounded(&mut self, lit: &GedLiteral, m: &[NodeId]) -> bool {
        matches!(lit, GedLiteral::Id { .. }) || self.operands(lit, m, false).is_some()
    }

    /// The quotient of `base` under the merges so far; a class node
    /// carries its root's unified label.
    pub fn quotient(&mut self, base: &Graph) -> Quotient {
        Quotient::build(base, &mut self.uf, |root| self.label[root.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::Vocab;

    fn base_graph() -> (Graph, Vocab) {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        let c = g.add_node(LabelId::WILDCARD);
        g.add_edge(a, e, b);
        g.add_edge(b, e, c);
        (g, vocab)
    }

    #[test]
    fn merge_is_idempotent_and_transitive() {
        let (g, _) = base_graph();
        let mut store = GedStore::new(&g);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let n2 = NodeId::new(2);
        assert!(store.merge_nodes(n0, n1).unwrap());
        assert!(!store.merge_nodes(n0, n1).unwrap());
        assert!(store.merge_nodes(n1, n2).unwrap());
        assert!(store.same_node(n0, n2));
    }

    #[test]
    fn wildcard_label_unifies_with_concrete() {
        let (g, mut vocab) = base_graph();
        let mut store = GedStore::new(&g);
        let t = vocab.label("t");
        // Node 2 is wildcard-labelled; merging with node 0 (t) unifies to t.
        store.merge_nodes(NodeId::new(2), NodeId::new(0)).unwrap();
        let root = store.find(NodeId::new(2));
        assert_eq!(store.label[root.index()], t);
    }

    #[test]
    fn distinct_concrete_labels_clash() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let u = vocab.label("u");
        let mut g = Graph::new();
        g.add_node(t);
        g.add_node(u);
        let mut store = GedStore::new(&g);
        let err = store
            .merge_nodes(NodeId::new(0), NodeId::new(1))
            .unwrap_err();
        assert!(matches!(err, StoreConflict::LabelClash(..)));
    }

    #[test]
    fn merging_nodes_equates_their_attribute_classes() {
        let (g, mut vocab) = base_graph();
        let mut store = GedStore::new(&g);
        let a = vocab.attr("a");
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let v0 = store.attr_var(n0, a);
        let v1 = store.attr_var(n1, a);
        assert_ne!(v0, v1);
        store.merge_nodes(n0, n1).unwrap();
        assert!(store.net().entails(v0, CmpOp::Eq, v1));
    }

    #[test]
    fn conflicting_constants_surface_through_merge() {
        let (g, mut vocab) = base_graph();
        let mut store = GedStore::new(&g);
        let a = vocab.attr("a");
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let lit0 = GedLiteral::eq_const(gfd_graph::VarId::new(0), a, 1i64);
        let lit1 = GedLiteral::eq_const(gfd_graph::VarId::new(0), a, 2i64);
        store.assert_literal(&lit0, &[n0]).unwrap();
        store.assert_literal(&lit1, &[n1]).unwrap();
        // Each node separately is fine; merging forces 1 = 2.
        assert!(store.merge_nodes(n0, n1).is_err());
    }

    #[test]
    fn assert_literal_is_monotone_and_change_tracked() {
        let (g, mut vocab) = base_graph();
        let mut store = GedStore::new(&g);
        let a = vocab.attr("a");
        let x = gfd_graph::VarId::new(0);
        let m = [NodeId::new(0)];
        let lit = GedLiteral::cmp_const(x, a, CmpOp::Le, 10i64);
        let v_before = store.version();
        assert!(store.assert_literal(&lit, &m).unwrap());
        assert!(store.version() > v_before);
        // Re-asserting an entailed fact changes nothing.
        let v_mid = store.version();
        assert!(!store.assert_literal(&lit, &m).unwrap());
        assert_eq!(store.version(), v_mid);
    }

    #[test]
    fn entailment_and_refutation_of_order_literals() {
        let (g, mut vocab) = base_graph();
        let mut store = GedStore::new(&g);
        let a = vocab.attr("a");
        let x = gfd_graph::VarId::new(0);
        let m = [NodeId::new(0)];
        store
            .assert_literal(&GedLiteral::cmp_const(x, a, CmpOp::Lt, 5i64), &m)
            .unwrap();
        assert!(store.literal_entailed(&GedLiteral::cmp_const(x, a, CmpOp::Lt, 7i64), &m));
        assert!(store.literal_entailed(&GedLiteral::cmp_const(x, a, CmpOp::Le, 5i64), &m));
        assert!(store.literal_refuted(&GedLiteral::cmp_const(x, a, CmpOp::Gt, 5i64), &m));
        assert!(!store.literal_entailed(&GedLiteral::cmp_const(x, a, CmpOp::Lt, 3i64), &m));
        assert!(!store.literal_refuted(&GedLiteral::cmp_const(x, a, CmpOp::Lt, 3i64), &m));
    }

    #[test]
    fn ungrounded_literals_are_neither_entailed_nor_refuted() {
        let (g, mut vocab) = base_graph();
        let mut store = GedStore::new(&g);
        let a = vocab.attr("missing");
        let x = gfd_graph::VarId::new(0);
        let m = [NodeId::new(0)];
        let lit = GedLiteral::eq_const(x, a, 1i64);
        assert!(!store.literal_grounded(&lit, &m));
        assert!(!store.literal_entailed(&lit, &m));
        assert!(!store.literal_refuted(&lit, &m));
    }

    #[test]
    fn assert_negation_flips_the_operator() {
        let (g, mut vocab) = base_graph();
        let mut store = GedStore::new(&g);
        let a = vocab.attr("a");
        let x = gfd_graph::VarId::new(0);
        let m = [NodeId::new(0)];
        let lit = GedLiteral::cmp_const(x, a, CmpOp::Lt, 5i64);
        store.assert_negation(&lit, &m).unwrap();
        assert!(store.literal_entailed(&GedLiteral::cmp_const(x, a, CmpOp::Ge, 5i64), &m));
        assert!(store.literal_refuted(&lit, &m));
    }

    #[test]
    fn quotient_rewires_edges_through_merges() {
        let (g, _) = base_graph();
        let mut store = GedStore::new(&g);
        store.merge_nodes(NodeId::new(0), NodeId::new(2)).unwrap();
        let Quotient {
            graph: q,
            of: mapping,
            ..
        } = store.quotient(&g);
        assert_eq!(q.node_count(), 2);
        assert_eq!(mapping[0], mapping[2]);
        // Edges 0→1 and 1→2 become m0→m1 and m1→m0.
        assert_eq!(q.edge_count(), 2);
    }

    #[test]
    fn quotient_without_merges_is_isomorphic() {
        let (g, _) = base_graph();
        let mut store = GedStore::new(&g);
        let Quotient {
            graph: q,
            of: mapping,
            ..
        } = store.quotient(&g);
        assert_eq!(q.node_count(), g.node_count());
        assert_eq!(q.edge_count(), g.edge_count());
        let mut sorted = mapping.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), g.node_count());
    }
}
