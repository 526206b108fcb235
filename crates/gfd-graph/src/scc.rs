//! Strongly connected components of a directed graph given by its
//! successor lists (Tarjan's algorithm, without recursion).

/// Not visited yet, or not in a completed component yet.
const NONE: u32 = u32::MAX;

/// The strongly connected components of the graph over nodes `0..n` in
/// which `v` has an edge to each node `succ(v)` yields, searched depth
/// first from the nodes in order. Per node, `(component, rank)`:
/// components are numbered in the order they complete — after every
/// component they reach, so an edge between two components runs from the
/// higher number to the lower (reverse topological order) — and the ranks
/// `0..n` order the nodes topologically by component, each component's
/// nodes in the order the search met them.
pub fn strongly_connected<I: Iterator<Item = u32>>(
    n: usize,
    mut succ: impl FnMut(usize) -> I,
) -> Vec<(u32, u32)> {
    // Per node: `[preorder index, low link, component]`; once the node's
    // component completes, the index is reused for its place among the
    // completed nodes (never `NONE`: the node stays visited).
    let mut state = vec![[NONE, 0, NONE]; n];
    // The nodes of unfinished components, and the depth-first path: each
    // node on it with the rest of its successors.
    let (mut stack, mut path): (Vec<usize>, Vec<(usize, I)>) = (Vec::new(), Vec::new());
    let (mut next, mut count, mut done) = (0, 0, 0);
    for root in 0..n {
        let mut enter = Some(root).filter(|&v| state[v][0] == NONE);
        loop {
            if let Some(v) = enter.take() {
                (state[v], next) = ([next, next, NONE], next + 1);
                stack.push(v);
                path.push((v, succ(v)));
            }
            let Some((v, rest)) = path.last_mut() else {
                break;
            };
            let v = *v;
            if let Some(w) = rest.next() {
                let [index, _, comp] = state[w as usize];
                if index == NONE {
                    enter = Some(w as usize);
                } else if comp == NONE {
                    // `w` is on the stack: in `v`'s component.
                    state[v][1] = state[v][1].min(index);
                }
                continue;
            }
            path.pop();
            let [index, low, _] = state[v];
            if let Some((u, _)) = path.last() {
                state[*u][1] = state[*u][1].min(low);
            }
            if low == index {
                // Popping yields the component in reverse search order.
                while let Some(w) = stack.pop() {
                    (state[w][0], state[w][2], done) = (done, count, done + 1);
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    // Later components and, inside one, earlier nodes rank first.
    state
        .into_iter()
        .map(|[done, _, comp]| (comp, n as u32 - 1 - done))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn components(edges: &[Vec<u32>]) -> Vec<(u32, u32)> {
        strongly_connected(edges.len(), |v| edges[v].iter().copied())
    }

    #[test]
    fn cycles_share_a_component_numbered_after_what_they_reach() {
        // 0 → 1 → 2 → 0 is one cycle; it reaches 3, and 4 reaches it.
        let comps = components(&[vec![1], vec![2], vec![0, 3], vec![], vec![0]]);
        let comp = |v: usize| comps[v].0;
        assert_eq!(comp(0), comp(1));
        assert_eq!(comp(1), comp(2));
        assert!(comp(0) > comp(3), "{comps:?}");
        assert!(comp(4) > comp(0), "{comps:?}");
        // 4 first (nothing reaches it), then the cycle in the order the
        // search met it, then 3.
        let ranks: Vec<u32> = comps.iter().map(|&(_, rank)| rank).collect();
        assert_eq!(ranks, [1, 2, 3, 4, 0]);
    }

    #[test]
    fn an_empty_graph_has_no_components() {
        assert!(components(&[]).is_empty());
    }

    #[test]
    fn a_long_path_needs_no_recursion() {
        let n = 200_000;
        let edges: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![(v + 1) % n as u32]).collect();
        let comps = components(&edges);
        assert!(comps.iter().all(|&(comp, _)| comp == 0));
    }
}
