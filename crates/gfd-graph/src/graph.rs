//! Directed, labelled property graphs `G = (V, E, L, F_A)`.

use crate::ids::{AttrId, LabelId, NodeId};
use crate::value::{Value, ValueId, ValueTable};
use rustc_hash::FxHashMap;

/// A labelled edge endpoint stored in adjacency lists: `(edge label, other
/// endpoint)`.
pub type Adj = (LabelId, NodeId);

/// How many entries an adjacency [`Row`] holds before it moves to a `Vec`.
const INLINE: usize = 2;

/// One node's out or in adjacency, in insertion order: up to [`INLINE`]
/// entries inline, a `Vec` only past that. Most nodes of a canonical
/// graph, and every node a chase generates, have at most two edges each
/// way, so their rows never touch the allocator.
#[derive(Clone, Debug)]
enum Row {
    Inline { len: u8, items: [Adj; INLINE] },
    Spilled(Vec<Adj>),
}

// A row costs a node no more than a `Vec` header and a tag.
const _: () = assert!(std::mem::size_of::<Row>() <= 32);

impl Row {
    const EMPTY: Row = Row::Inline {
        len: 0,
        items: [(LabelId(0), NodeId(0)); INLINE],
    };

    #[inline]
    fn as_slice(&self) -> &[Adj] {
        match self {
            Row::Inline { len, items } => &items[..*len as usize],
            Row::Spilled(v) => v,
        }
    }

    fn push(&mut self, entry: Adj) {
        match self {
            Row::Inline { len, items } if usize::from(*len) < INLINE => {
                items[usize::from(*len)] = entry;
                *len += 1;
            }
            Row::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(items);
                v.push(entry);
                *self = Row::Spilled(v);
            }
            Row::Spilled(v) => v.push(entry),
        }
    }

    fn remove(&mut self, pos: usize) {
        match self {
            Row::Inline { len, items } => {
                items.copy_within(pos + 1..usize::from(*len), pos);
                *len -= 1;
            }
            Row::Spilled(v) => {
                v.remove(pos);
            }
        }
    }
}

/// A directed graph with labelled nodes and edges and per-node attribute
/// tuples, as defined in §II of the paper.
///
/// Nodes are dense `NodeId`s; adjacency is stored both ways so matching can
/// traverse pattern edges in either direction, one row per node and
/// direction (two entries inline, a `Vec` past that). Attributes are
/// interned [`ValueId`]s in one columnar store indexed `[attr][node]`:
/// the literal-evaluation hot path reads one value with two indexed
/// loads, a write touches one column, and a node owns no attribute
/// allocation of its own. The distinct-attribute count is small in every
/// workload, so the store costs one dense `u32` column per attribute.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    labels: Vec<LabelId>,
    out: Vec<Row>,
    inn: Vec<Row>,
    /// `cols[attr][node]`, `ValueId::NONE` where the attribute is absent
    /// (or past the column's end).
    cols: Vec<Vec<ValueId>>,
    edge_count: usize,
    attr_count: usize,
    /// Bumped on every topology mutation (node or edge insertion, not
    /// attribute updates). Frozen views record the version they were built
    /// at and fail fast on a mismatch (DESIGN.md §1).
    topology_version: u64,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Graph {
            labels: Vec::with_capacity(nodes),
            out: Vec::with_capacity(nodes),
            inn: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// The current topology version: bumped on every node or edge
    /// insertion (attribute updates do not count — enforcement mutates
    /// attributes only). A frozen [`crate::CsrTopology`] records the
    /// version it was built at; comparing the two detects stale views.
    #[inline]
    pub fn topology_version(&self) -> u64 {
        self.topology_version
    }

    /// Add a node with the given label, returning its id.
    pub fn add_node(&mut self, label: LabelId) -> NodeId {
        let id = NodeId::new(self.labels.len());
        self.labels.push(label);
        self.out.push(Row::EMPTY);
        self.inn.push(Row::EMPTY);
        self.topology_version += 1;
        id
    }

    /// Add a directed edge `src --label--> dst`. Parallel edges with
    /// distinct labels are allowed; an identical `(src, label, dst)` triple
    /// is stored once.
    pub fn add_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) {
        assert!(src.index() < self.labels.len(), "add_edge: bad src");
        assert!(dst.index() < self.labels.len(), "add_edge: bad dst");
        if self.out_edges(src).contains(&(label, dst)) {
            return;
        }
        self.out[src.index()].push((label, dst));
        self.inn[dst.index()].push((label, src));
        self.edge_count += 1;
        self.topology_version += 1;
    }

    /// Remove the directed edge `src --label--> dst`, returning whether
    /// it existed. Bumps the topology version on success (frozen views
    /// must be re-frozen or routed through a delta overlay).
    pub fn remove_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        let Some(pos) = self.out_edges(src).iter().position(|&e| e == (label, dst)) else {
            return false;
        };
        self.out[src.index()].remove(pos);
        let pos = self
            .in_edges(dst)
            .iter()
            .position(|&e| e == (label, src))
            .expect("in/out adjacency out of sync");
        self.inn[dst.index()].remove(pos);
        self.edge_count -= 1;
        self.topology_version += 1;
        true
    }

    /// Set (or overwrite) attribute `attr` of `node` to `value`,
    /// interning it. Boundary convenience — hot paths that already hold
    /// an id use [`Graph::set_attr_id`].
    pub fn set_attr(&mut self, node: NodeId, attr: AttrId, value: impl Into<Value>) {
        self.set_attr_id(node, attr, ValueTable::intern(&value.into()));
    }

    /// Set (or overwrite) attribute `attr` of `node` to an interned id:
    /// one column write.
    pub fn set_attr_id(&mut self, node: NodeId, attr: AttrId, value: ValueId) {
        debug_assert!(value.is_some(), "NONE is not a storable value");
        assert!(node.index() < self.labels.len(), "set_attr_id: bad node");
        let ai = attr.index();
        if self.cols.len() <= ai {
            self.cols.resize_with(ai + 1, Vec::new);
        }
        let col = &mut self.cols[ai];
        if col.len() <= node.index() {
            col.resize(node.index() + 1, ValueId::NONE);
        }
        let slot = &mut col[node.index()];
        self.attr_count += usize::from(slot.is_none());
        *slot = value;
    }

    /// The interned value of attribute `attr` at `node`, if present.
    /// One column load — the literal-evaluation hot path.
    #[inline]
    pub fn attr(&self, node: NodeId, attr: AttrId) -> Option<ValueId> {
        let v = *self.cols.get(attr.index())?.get(node.index())?;
        if v.is_none() {
            None
        } else {
            Some(v)
        }
    }

    /// All attributes of `node`, in attribute-id order, read across the
    /// columns.
    pub fn attrs(&self, node: NodeId) -> impl Iterator<Item = (AttrId, ValueId)> + '_ {
        let i = node.index();
        self.cols.iter().enumerate().filter_map(move |(a, col)| {
            let v = *col.get(i)?;
            v.is_some().then(|| (AttrId::new(a), v))
        })
    }

    /// The label of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> LabelId {
        self.labels[node.index()]
    }

    /// Out-edges of `node` as `(edge label, target)` pairs, in insertion
    /// order.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[Adj] {
        self.out[node.index()].as_slice()
    }

    /// In-edges of `node` as `(edge label, source)` pairs, in insertion
    /// order.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[Adj] {
        self.inn[node.index()].as_slice()
    }

    /// True iff the edge `src --label--> dst` exists.
    pub fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        // Scan the smaller endpoint list.
        let o = self.out_edges(src);
        let i = self.in_edges(dst);
        if o.len() <= i.len() {
            o.contains(&(label, dst))
        } else {
            i.contains(&(label, src))
        }
    }

    /// True iff an edge `src --l--> dst` exists whose label is matched by
    /// the (possibly wildcard) pattern label `label`.
    pub fn has_edge_pattern(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        if !label.is_wildcard() {
            return self.has_edge(src, label, dst);
        }
        let o = self.out_edges(src);
        let i = self.in_edges(dst);
        if o.len() <= i.len() {
            o.iter().any(|&(_, d)| d == dst)
        } else {
            i.iter().any(|&(_, s)| s == src)
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Total number of attribute entries across all nodes.
    pub fn attr_count(&self) -> usize {
        self.attr_count
    }

    /// The size `|G|` = nodes + edges + attribute entries, the measure used
    /// for the paper's Σ-bounded populations.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count() + self.attr_count()
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + use<> {
        (0..self.labels.len()).map(NodeId::new)
    }

    /// Iterate all edges as `(src, label, dst)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, LabelId, NodeId)> + '_ {
        self.out.iter().enumerate().flat_map(|(src, row)| {
            row.as_slice()
                .iter()
                .map(move |&(label, dst)| (NodeId::new(src), label, dst))
        })
    }

    /// Copy another graph into this one, returning the node-id offset that
    /// was applied to the copied nodes. Used to build canonical graphs as
    /// disjoint unions of patterns.
    pub fn append_disjoint(&mut self, other: &Graph) -> usize {
        let offset = self.node_count();
        for v in other.nodes() {
            self.add_node(other.label(v));
        }
        for (src, label, dst) in other.edges() {
            self.add_edge(
                NodeId::new(src.index() + offset),
                label,
                NodeId::new(dst.index() + offset),
            );
        }
        for v in other.nodes() {
            for (attr, value) in other.attrs(v) {
                self.set_attr_id(NodeId::new(v.index() + offset), attr, value);
            }
        }
        offset
    }
}

/// An index from node label to the nodes carrying it, plus the full node
/// list for wildcard lookups and the frozen [`crate::CsrTopology`] the matching
/// hot path probes.
///
/// Building the index freezes the graph's topology: the CSR view rides
/// along so that every layer holding a `LabelIndex` (matcher, canonical
/// graphs, detection, workers) gets `O(log d)` edge probes and per-label
/// adjacency sub-slices without any signature change. Like the label
/// buckets, the CSR goes stale if edges are added after `build`.
#[derive(Clone, Debug, Default)]
pub struct LabelIndex {
    by_label: FxHashMap<LabelId, Vec<NodeId>>,
    all: Vec<NodeId>,
    csr: crate::csr::CsrTopology,
}

impl LabelIndex {
    /// Build the index for `graph`, freezing its topology.
    pub fn build(graph: &Graph) -> Self {
        let mut by_label: FxHashMap<LabelId, Vec<NodeId>> = FxHashMap::default();
        let mut all = Vec::with_capacity(graph.node_count());
        for v in graph.nodes() {
            by_label.entry(graph.label(v)).or_default().push(v);
            all.push(v);
        }
        LabelIndex {
            by_label,
            all,
            csr: graph.freeze(),
        }
    }

    /// The frozen CSR topology built alongside the label buckets.
    #[inline]
    pub fn csr(&self) -> &crate::csr::CsrTopology {
        &self.csr
    }

    /// Debug-assert that `graph`'s topology has not changed since this
    /// index (and its CSR view) was built. See
    /// [`crate::CsrTopology::assert_fresh`].
    #[inline]
    pub fn assert_fresh(&self, graph: &Graph) {
        self.csr.assert_fresh(graph);
    }

    /// Candidate nodes for a pattern node labelled `label`: every node when
    /// `label` is the wildcard, otherwise the nodes with exactly that label.
    pub fn candidates(&self, label: LabelId) -> &[NodeId] {
        if label.is_wildcard() {
            &self.all
        } else {
            self.by_label.get(&label).map_or(&[], Vec::as_slice)
        }
    }

    /// How many nodes carry `label` (all nodes for the wildcard). Used for
    /// pivot selectivity.
    pub fn frequency(&self, label: LabelId) -> usize {
        self.candidates(label).len()
    }

    /// Total number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.all.len()
    }

    /// Deconstruct into the label buckets, node list and frozen CSR —
    /// used by [`crate::DeltaIndex`] to reuse this index's freeze.
    pub(crate) fn into_parts(
        self,
    ) -> (
        FxHashMap<LabelId, Vec<NodeId>>,
        Vec<NodeId>,
        crate::csr::CsrTopology,
    ) {
        (self.by_label, self.all, self.csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Vocab;

    fn tiny() -> (Graph, Vocab) {
        let mut v = Vocab::new();
        let place = v.label("place");
        let person = v.label("person");
        let lives = v.label("livesIn");
        let mut g = Graph::new();
        let a = g.add_node(person);
        let b = g.add_node(place);
        let c = g.add_node(person);
        g.add_edge(a, lives, b);
        g.add_edge(c, lives, b);
        g.set_attr(a, v.attr("name"), Value::str("ann"));
        (g, v)
    }

    #[test]
    fn build_and_query() {
        let (g, mut v) = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.attr_count(), 1);
        assert_eq!(g.size(), 6);
        let lives = v.label("livesIn");
        assert!(g.has_edge(NodeId::new(0), lives, NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(1), lives, NodeId::new(0)));
        assert_eq!(g.out_edges(NodeId::new(0)).len(), 1);
        assert_eq!(g.in_edges(NodeId::new(1)).len(), 2);
        let name = v.attr("name");
        assert_eq!(g.attr(NodeId::new(0), name), Some(ValueId::of("ann")));
        assert_eq!(g.attr(NodeId::new(1), name), None);
    }

    #[test]
    fn set_attr_overwrites() {
        let (mut g, mut v) = tiny();
        let name = v.attr("name");
        g.set_attr(NodeId::new(0), name, Value::str("bob"));
        assert_eq!(g.attr(NodeId::new(0), name), Some(ValueId::of("bob")));
        assert_eq!(g.attr_count(), 1);
    }

    #[test]
    fn attrs_stay_sorted() {
        let (mut g, mut v) = tiny();
        let z = v.attr("zzz");
        let a = v.attr("aaa");
        g.set_attr(NodeId::new(2), z, Value::int(1));
        g.set_attr(NodeId::new(2), a, Value::int(2));
        let ids: Vec<AttrId> = g.attrs(NodeId::new(2)).map(|(a, _)| a).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let (mut g, mut v) = tiny();
        let lives = v.label("livesIn");
        g.add_edge(NodeId::new(0), lives, NodeId::new(1));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parallel_edges_with_distinct_labels() {
        let (mut g, mut v) = tiny();
        let other = v.label("worksIn");
        g.add_edge(NodeId::new(0), other, NodeId::new(1));
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId::new(0), other, NodeId::new(1)));
    }

    #[test]
    fn edges_iterator_lists_all() {
        let (g, _) = tiny();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn append_disjoint_offsets_everything() {
        let (g1, _) = tiny();
        let mut g = Graph::new();
        let off0 = g.append_disjoint(&g1);
        let off1 = g.append_disjoint(&g1);
        assert_eq!(off0, 0);
        assert_eq!(off1, 3);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.attr_count(), 2);
    }

    #[test]
    fn label_index_candidates() {
        let (g, mut v) = tiny();
        let idx = LabelIndex::build(&g);
        let person = v.label("person");
        let place = v.label("place");
        assert_eq!(idx.candidates(person).len(), 2);
        assert_eq!(idx.candidates(place).len(), 1);
        assert_eq!(idx.candidates(LabelId::WILDCARD).len(), 3);
        assert_eq!(idx.candidates(v.label("nothing")).len(), 0);
        assert_eq!(idx.frequency(person), 2);
        assert_eq!(idx.node_count(), 3);
    }
}
