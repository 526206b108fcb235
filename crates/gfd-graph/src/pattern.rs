//! Graph patterns `Q[x̄]` with wildcard labels.

use crate::graph::Graph;
use crate::ids::{LabelId, NodeId, VarId};

/// A directed pattern edge `src --label--> dst` between pattern variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PatternEdge {
    /// Source variable.
    pub src: VarId,
    /// Edge label (possibly the wildcard).
    pub label: LabelId,
    /// Destination variable.
    pub dst: VarId,
}

/// A graph pattern: a small directed graph whose nodes are the variables
/// `x̄` of a GFD. Node and edge labels may be the wildcard `_`.
#[derive(Clone, Debug, Default)]
pub struct Pattern {
    labels: Vec<LabelId>,
    names: Vec<String>,
    edges: Vec<PatternEdge>,
    out: Vec<Vec<(LabelId, VarId)>>,
    inn: Vec<Vec<(LabelId, VarId)>>,
}

impl Pattern {
    /// An empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a pattern node (variable) with a label and a display name.
    pub fn add_node(&mut self, label: LabelId, name: impl Into<String>) -> VarId {
        let id = VarId::new(self.labels.len());
        self.labels.push(label);
        self.names.push(name.into());
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    /// Add a pattern node with an auto-generated name `x{i}`.
    pub fn add_anon_node(&mut self, label: LabelId) -> VarId {
        let name = format!("x{}", self.labels.len());
        self.add_node(label, name)
    }

    /// Add a directed pattern edge.
    pub fn add_edge(&mut self, src: VarId, label: LabelId, dst: VarId) {
        assert!(src.index() < self.labels.len(), "add_edge: bad src");
        assert!(dst.index() < self.labels.len(), "add_edge: bad dst");
        let e = PatternEdge { src, label, dst };
        if self.edges.contains(&e) {
            return;
        }
        self.edges.push(e);
        self.out[src.index()].push((label, dst));
        self.inn[dst.index()].push((label, src));
    }

    /// The label of variable `v` (possibly wildcard).
    #[inline]
    pub fn label(&self, v: VarId) -> LabelId {
        self.labels[v.index()]
    }

    /// The display name of variable `v`.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// Find a variable by display name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.names.iter().position(|n| n == name).map(VarId::new)
    }

    /// Number of pattern nodes (the paper's parameter `k`).
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of pattern edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Pattern size `|Q|` = nodes + edges.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// All pattern edges.
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Out-neighbours of `v` as `(edge label, target)` pairs.
    #[inline]
    pub fn out_edges(&self, v: VarId) -> &[(LabelId, VarId)] {
        &self.out[v.index()]
    }

    /// In-neighbours of `v` as `(edge label, source)` pairs.
    #[inline]
    pub fn in_edges(&self, v: VarId) -> &[(LabelId, VarId)] {
        &self.inn[v.index()]
    }

    /// Iterate all variables.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + use<> {
        (0..self.labels.len()).map(VarId::new)
    }

    /// Undirected degree of `v`.
    pub fn degree(&self, v: VarId) -> usize {
        self.out[v.index()].len() + self.inn[v.index()].len()
    }

    /// Undirected connected components: `(component id per var, count)`,
    /// numbered as [`Pattern::label_components`] numbers them.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let mut comp = vec![0; self.node_count()];
        let count = self.label_components(&mut comp);
        (comp, count as usize)
    }

    /// Write each variable's undirected connected component into `comp`
    /// (one slot per variable), numbered from 0 in the order of each
    /// component's least variable, and return the count. Allocates
    /// nothing: `comp` first holds a union-find forest whose parents
    /// are never above their children, so one ascending pass meets every
    /// root (a component's least variable) before its members.
    pub fn label_components(&self, comp: &mut [u32]) -> u32 {
        let n = self.node_count();
        assert_eq!(comp.len(), n, "label_components: one slot per variable");
        comp.iter_mut().enumerate().for_each(|(v, c)| *c = v as u32);
        let root = |comp: &mut [u32], mut v: u32| {
            while comp[v as usize] != v {
                let up = comp[comp[v as usize] as usize];
                comp[v as usize] = up;
                v = up;
            }
            v
        };
        for e in &self.edges {
            let (a, b) = (root(comp, e.src.0), root(comp, e.dst.0));
            comp[a.max(b) as usize] = a.min(b);
        }
        let mut count = 0;
        for v in 0..n {
            // A parent below `v` already holds its id; a root takes the next.
            let parent = comp[v] as usize;
            comp[v] = if parent < v { comp[parent] } else { count };
            count += u32::from(parent == v);
        }
        count
    }

    /// True iff the pattern is connected (and non-empty).
    pub fn is_connected(&self) -> bool {
        self.node_count() > 0 && self.components().1 == 1
    }

    /// Undirected BFS distances from `start`; unreachable vars get
    /// `u32::MAX`.
    pub fn distances_from(&self, start: VarId) -> Vec<u32> {
        let n = self.node_count();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = 0;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()];
            for &(_, u) in self.out[v.index()].iter().chain(self.inn[v.index()].iter()) {
                if dist[u.index()] == u32::MAX {
                    dist[u.index()] = d + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// The radius `dQ` of the pattern at `v`: the longest shortest
    /// (undirected) path from `v` to any variable reachable from it. Matches
    /// pivoted at a node `z` of a graph live entirely within the
    /// `dQ`-neighborhood of `z` (the data-locality property of §V-B).
    pub fn radius_at(&self, v: VarId) -> u32 {
        self.distances_from(v)
            .into_iter()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Labels of all nodes, in variable order.
    pub fn node_labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// Materialize the pattern as a [`Graph`] (labels kept verbatim,
    /// including wildcards). Variable `i` becomes node `i`.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::with_capacity(self.node_count());
        for v in self.vars() {
            g.add_node(self.label(v));
        }
        for e in &self.edges {
            g.add_edge(
                NodeId::new(e.src.index()),
                e.label,
                NodeId::new(e.dst.index()),
            );
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Vocab;

    /// The paper's Q1: place --locateIn--> place --partOf--> back (a cycle).
    fn q1(v: &mut Vocab) -> Pattern {
        let place = v.label("place");
        let mut q = Pattern::new();
        let x = q.add_node(place, "x");
        let y = q.add_node(place, "y");
        q.add_edge(x, v.label("locateIn"), y);
        q.add_edge(y, v.label("partOf"), x);
        q
    }

    #[test]
    fn build_and_query() {
        let mut v = Vocab::new();
        let q = q1(&mut v);
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 2);
        assert_eq!(q.size(), 4);
        assert!(q.is_connected());
        assert_eq!(q.var_name(VarId::new(0)), "x");
        assert_eq!(q.var_by_name("y"), Some(VarId::new(1)));
        assert_eq!(q.var_by_name("z"), None);
        assert_eq!(q.degree(VarId::new(0)), 2);
    }

    #[test]
    fn radius_of_cycle_and_path() {
        let mut v = Vocab::new();
        let q = q1(&mut v);
        assert_eq!(q.radius_at(VarId::new(0)), 1);

        // Path x -> y -> z: radius at x is 2, at y is 1.
        let mut p = Pattern::new();
        let l = v.label("t");
        let e = v.label("e");
        let x = p.add_node(l, "x");
        let y = p.add_node(l, "y");
        let z = p.add_node(l, "z");
        p.add_edge(x, e, y);
        p.add_edge(y, e, z);
        assert_eq!(p.radius_at(x), 2);
        assert_eq!(p.radius_at(y), 1);
        assert_eq!(p.radius_at(z), 2);
    }

    #[test]
    fn disconnected_components() {
        let mut v = Vocab::new();
        let l = v.label("t");
        let mut p = Pattern::new();
        let a = p.add_node(l, "a");
        let b = p.add_node(l, "b");
        p.add_node(l, "c");
        p.add_edge(a, v.label("e"), b);
        let (comp, count) = p.components();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
        assert!(!p.is_connected());
        // Radius only covers the reachable part.
        assert_eq!(p.radius_at(a), 1);
        let d = p.distances_from(a);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn components_are_numbered_by_least_variable() {
        let mut v = Vocab::new();
        let (l, e) = (v.label("t"), v.label("e"));
        let mut p = Pattern::new();
        let x: Vec<VarId> = (0..5).map(|_| p.add_anon_node(l)).collect();
        // Edges run from higher to lower variables, and {1, 3, 4} is
        // joined last through its largest member.
        p.add_edge(x[4], e, x[3]);
        p.add_edge(x[2], e, x[0]);
        p.add_edge(x[4], e, x[1]);
        let mut comp = [u32::MAX; 5];
        assert_eq!(p.label_components(&mut comp), 2);
        assert_eq!(comp, [0, 1, 0, 1, 1]);
        assert_eq!(p.components(), (comp.to_vec(), 2));
    }

    #[test]
    fn to_graph_preserves_structure() {
        let mut v = Vocab::new();
        let q = q1(&mut v);
        let g = q.to_graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId::new(0), v.label("locateIn"), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), v.label("partOf"), NodeId::new(0)));
    }

    #[test]
    fn duplicate_pattern_edge_ignored() {
        let mut v = Vocab::new();
        let mut q = q1(&mut v);
        let x = VarId::new(0);
        let y = VarId::new(1);
        q.add_edge(x, v.label("locateIn"), y);
        assert_eq!(q.edge_count(), 2);
    }

    #[test]
    fn anon_names_are_positional() {
        let mut v = Vocab::new();
        let mut q = Pattern::new();
        let a = q.add_anon_node(v.label("t"));
        let b = q.add_anon_node(v.label("t"));
        assert_eq!(q.var_name(a), "x0");
        assert_eq!(q.var_name(b), "x1");
    }
}
