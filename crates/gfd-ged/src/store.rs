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
//!
//! Everything is monotone: facts are only ever added, which is what the
//! backtracking searches in [`crate::sat`] and [`crate::imp`] rely on
//! (they clone the store at choice points).

use crate::ged::{CmpOp, GedLiteral};
use crate::order::{OrderConflict, OrderNet, OrderVar};
use gfd_graph::{AttrId, Graph, LabelId, NodeId};
use rustc_hash::FxHashMap;
use std::fmt;

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
    /// Union-find parents over node indices.
    parent: Vec<u32>,
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
            parent: (0..graph.node_count() as u32).collect(),
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
        let mut i = n.index() as u32;
        // Path halving.
        while self.parent[i as usize] != i {
            let p = self.parent[i as usize];
            self.parent[i as usize] = self.parent[p as usize];
            i = self.parent[i as usize];
        }
        NodeId::new(i as usize)
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
        self.parent[rb.index()] = ra.index() as u32;
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

    /// The order variable of `attr` at `n`, if it already exists.
    pub fn existing_attr_var(&mut self, n: NodeId, attr: AttrId) -> Option<OrderVar> {
        let root = self.find(n).index() as u32;
        self.attr_vars.get(&(root, attr)).copied()
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

    /// Assert a literal at match `m` (variable `i` ↦ `m[i]`). Returns
    /// `Ok(true)` when new information was added.
    pub fn assert_literal(
        &mut self,
        lit: &GedLiteral,
        m: &[NodeId],
    ) -> Result<bool, StoreConflict> {
        match lit {
            GedLiteral::Id { left, right } => self.merge_nodes(m[left.index()], m[right.index()]),
            GedLiteral::AttrConst {
                var,
                attr,
                op,
                value,
            } => {
                let a = self.attr_var(m[var.index()], *attr);
                let c = self.net.const_var(&value.resolve());
                self.assert_cmp_tracked(a, *op, c)
            }
            GedLiteral::AttrAttr {
                var,
                attr,
                op,
                other_var,
                other_attr,
            } => {
                let a = self.attr_var(m[var.index()], *attr);
                let b = self.attr_var(m[other_var.index()], *other_attr);
                self.assert_cmp_tracked(a, *op, b)
            }
        }
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
        match lit {
            GedLiteral::Id { left, right } => self.same_node(m[left.index()], m[right.index()]),
            GedLiteral::AttrConst {
                var,
                attr,
                op,
                value,
            } => {
                let Some(a) = self.existing_attr_var(m[var.index()], *attr) else {
                    return false;
                };
                match self.net.lookup_const(&value.resolve()) {
                    Some(c) => self.net.entails(a, *op, c),
                    // Constant never mentioned: intern it lazily (harmless
                    // — only adds chain edges among constants) and query.
                    None => self.entails_against_new_const(a, *op, &value.resolve()),
                }
            }
            GedLiteral::AttrAttr {
                var,
                attr,
                op,
                other_var,
                other_attr,
            } => {
                let Some(a) = self.existing_attr_var(m[var.index()], *attr) else {
                    return false;
                };
                let Some(b) = self.existing_attr_var(m[other_var.index()], *other_attr) else {
                    return false;
                };
                self.net.entails(a, *op, b)
            }
        }
    }

    /// Entailment against a constant not yet interned: intern it (harmless
    /// — adds only chain edges among constants) and query.
    fn entails_against_new_const(
        &mut self,
        a: OrderVar,
        op: CmpOp,
        value: &gfd_graph::Value,
    ) -> bool {
        let c = self.net.const_var(value);
        self.net.entails(a, op, c)
    }

    /// Is the *negation* of the literal entailed at `m`?
    pub fn literal_refuted(&mut self, lit: &GedLiteral, m: &[NodeId]) -> bool {
        match lit {
            // Node classes can always be kept distinct in a model, but a
            // merge is never retracted — so an id literal is "refuted" only
            // in the sense of not being entailed; structurally it has no
            // negation in the store.
            GedLiteral::Id { .. } => false,
            GedLiteral::AttrConst {
                var,
                attr,
                op,
                value,
            } => {
                let Some(a) = self.existing_attr_var(m[var.index()], *attr) else {
                    return false;
                };
                let c = self.net.const_var(&value.resolve());
                self.net.entails(a, op.negate(), c)
            }
            GedLiteral::AttrAttr {
                var,
                attr,
                op,
                other_var,
                other_attr,
            } => {
                let Some(a) = self.existing_attr_var(m[var.index()], *attr) else {
                    return false;
                };
                let Some(b) = self.existing_attr_var(m[other_var.index()], *other_attr) else {
                    return false;
                };
                self.net.entails(a, op.negate(), b)
            }
        }
    }

    /// Assert the negation of an (attribute) literal. Panics on id
    /// literals — node classes are separated by construction, never by
    /// assertion.
    pub fn assert_negation(
        &mut self,
        lit: &GedLiteral,
        m: &[NodeId],
    ) -> Result<bool, StoreConflict> {
        match lit {
            GedLiteral::Id { .. } => {
                panic!("id literals are falsified by keeping nodes distinct, not asserted")
            }
            GedLiteral::AttrConst {
                var,
                attr,
                op,
                value,
            } => {
                let a = self.attr_var(m[var.index()], *attr);
                let c = self.net.const_var(&value.resolve());
                self.assert_cmp_tracked(a, op.negate(), c)
            }
            GedLiteral::AttrAttr {
                var,
                attr,
                op,
                other_var,
                other_attr,
            } => {
                let a = self.attr_var(m[var.index()], *attr);
                let b = self.attr_var(m[other_var.index()], *other_attr);
                self.assert_cmp_tracked(a, op.negate(), b)
            }
        }
    }

    /// Does the literal mention only attribute classes that already exist
    /// (so that omission cannot falsify it)?
    pub fn literal_grounded(&mut self, lit: &GedLiteral, m: &[NodeId]) -> bool {
        match lit {
            GedLiteral::Id { .. } => true,
            GedLiteral::AttrConst { var, attr, .. } => {
                self.existing_attr_var(m[var.index()], *attr).is_some()
            }
            GedLiteral::AttrAttr {
                var,
                attr,
                other_var,
                other_attr,
                ..
            } => {
                self.existing_attr_var(m[var.index()], *attr).is_some()
                    && self
                        .existing_attr_var(m[other_var.index()], *other_attr)
                        .is_some()
            }
        }
    }

    /// Full consistency check.
    pub fn check(&self) -> Result<(), StoreConflict> {
        self.net.check().map_err(StoreConflict::from)
    }

    /// Build the quotient graph: one node per merge class, edges and the
    /// class structure mapped through `find`. Returns the graph and the
    /// old-node → new-node mapping.
    pub fn quotient(&mut self, base: &Graph) -> (Graph, Vec<NodeId>) {
        let n = base.node_count();
        let mut root_to_new: FxHashMap<u32, NodeId> = FxHashMap::default();
        let mut mapping = vec![NodeId::new(0); n];
        let mut q = Graph::new();
        for v in base.nodes() {
            let root = self.find(v);
            let new = *root_to_new
                .entry(root.index() as u32)
                .or_insert_with(|| q.add_node(self.label[root.index()]));
            mapping[v.index()] = new;
        }
        for (src, label, dst) in base.edges() {
            q.add_edge(mapping[src.index()], label, mapping[dst.index()]);
        }
        (q, mapping)
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
        let (q, mapping) = store.quotient(&g);
        assert_eq!(q.node_count(), 2);
        assert_eq!(mapping[0], mapping[2]);
        // Edges 0→1 and 1→2 become m0→m1 and m1→m0.
        assert_eq!(q.edge_count(), 2);
    }

    #[test]
    fn quotient_without_merges_is_isomorphic() {
        let (g, _) = base_graph();
        let mut store = GedStore::new(&g);
        let (q, mapping) = store.quotient(&g);
        assert_eq!(q.node_count(), g.node_count());
        assert_eq!(q.edge_count(), g.edge_count());
        let mut sorted = mapping.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), g.node_count());
    }
}
