//! A deliberately simple brute-force matcher used as a correctness oracle in
//! tests and property-based checks.
//!
//! It assigns pattern variables to graph nodes in variable order, trying
//! every node for each, and backtracks the moment a variable's label or an
//! edge to a variable already assigned fails. No plan, no index, no
//! candidate intersection: exponential, but obviously correct — do not use
//! outside tests/benchmarks.

use crate::search::Match;
use gfd_graph::{Graph, NodeId, Pattern, VarId};

/// Enumerate all homomorphic matches of `pattern` in `graph` by exhaustive
/// search. Matches are var-indexed like [`crate::search::Match`].
pub fn brute_force_matches(graph: &Graph, pattern: &Pattern) -> Vec<Match> {
    let k = pattern.node_count();
    if k == 0 || graph.node_count() == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut assignment = vec![NodeId::new(0); k];
    assign(graph, pattern, 0, &mut assignment, &mut out);
    out
}

fn assign(
    graph: &Graph,
    pattern: &Pattern,
    var: usize,
    assignment: &mut [NodeId],
    out: &mut Vec<Match>,
) {
    if var == assignment.len() {
        out.push(assignment.to_vec().into_boxed_slice());
        return;
    }
    for node in graph.nodes() {
        assignment[var] = node;
        if fits(graph, pattern, VarId::new(var), assignment) {
            assign(graph, pattern, var + 1, assignment, out);
        }
    }
}

/// Check `v`'s label, and every pattern edge between `v` and the variables
/// before it (a self-loop on `v` included), against `assignment`.
fn fits(graph: &Graph, pattern: &Pattern, v: VarId, assignment: &[NodeId]) -> bool {
    let node = |v: VarId| assignment[v.index()];
    pattern.label(v).pattern_matches(graph.label(node(v)))
        && (pattern.edges().iter())
            .filter(|e| e.src.max(e.dst) == v)
            .all(|e| graph.has_edge_pattern(node(e.src), e.label, node(e.dst)))
}

/// Check every constraint of the pattern against a full assignment: each
/// edge is checked once, at the later of its two endpoints.
pub fn is_valid(graph: &Graph, pattern: &Pattern, assignment: &[NodeId]) -> bool {
    pattern.vars().all(|v| fits(graph, pattern, v, assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::find_all_matches;
    use gfd_graph::{LabelIndex, Vocab};

    #[test]
    fn agrees_with_backtracking_matcher_on_triangle() {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        let c = g.add_node(t);
        g.add_edge(a, e, b);
        g.add_edge(b, e, c);
        g.add_edge(c, e, a);
        g.add_edge(a, e, c);

        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        p.add_edge(x, e, y);
        p.add_edge(y, e, z);

        let idx = LabelIndex::build(&g);
        let mut fast: Vec<Vec<NodeId>> = find_all_matches(&g, &idx, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        let mut brute: Vec<Vec<NodeId>> = brute_force_matches(&g, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        fast.sort();
        brute.sort();
        assert_eq!(fast, brute);
        assert!(!brute.is_empty());
    }

    #[test]
    fn empty_pattern_has_no_matches() {
        let g = Graph::new();
        let p = Pattern::new();
        assert!(brute_force_matches(&g, &p).is_empty());
    }
}
