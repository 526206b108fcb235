//! An order-constraint network over attribute classes.
//!
//! Built-in predicates (`<, ≤, >, ≥, ≠`) between attribute classes and
//! constants form a constraint network. Satisfiability over a *dense,
//! unbounded* ordered domain (the standard setting for dependency
//! reasoning with order, e.g. ℚ) has a classical characterization:
//!
//! * model `a ≤ b` and `a < b` as directed edges;
//! * the network is consistent iff **no cycle contains a strict edge** and
//!   no `≠`-pair (nor two distinct constants) lies in the same
//!   `≤`-strongly-connected component.
//!
//! Constants participate as nodes keyed by their interned [`ValueId`]
//! and chained by strict edges in value order (`ValueId`'s semantic
//! `Ord`), so `x ≤ 3 ∧ x ≥ 5` closes a strict cycle through `3 < 5`.
//!
//! The same machinery answers *entailment* queries (`does the network
//! force a op b?`) used by the implication checker's `Y ⊆ EqH` test.
//!
//! ## Density caveat
//!
//! Over a discrete domain (pure integers) `x > 3 ∧ x < 4` is unsatisfiable
//! but this network reports it consistent; conflicts reported are always
//! real, i.e. the check is sound for conflicts and complete over dense
//! domains. This mirrors the usual treatment of order predicates in the
//! GED literature.

use crate::ged::CmpOp;
use gfd_graph::{strongly_connected, ValueId};
use rustc_hash::FxHashMap;
use std::fmt;

/// A variable of the order network (an attribute class or a constant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderVar(u32);

impl OrderVar {
    /// The variable's dense index (for indexing assignment vectors).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A conflict found by the consistency check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderConflict {
    /// A cycle of `≤`/`<` edges contains a strict edge.
    StrictCycle,
    /// Two variables required to be equal and distinct at once.
    NeViolated,
    /// Two distinct constants forced equal.
    ConstantsMerged(ValueId, ValueId),
}

impl fmt::Display for OrderConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderConflict::StrictCycle => write!(f, "strict inequality cycle"),
            OrderConflict::NeViolated => write!(f, "x != y contradicts forced equality"),
            OrderConflict::ConstantsMerged(a, b) => {
                write!(f, "constants {a:?} and {b:?} forced equal")
            }
        }
    }
}

/// The constraint network.
#[derive(Clone, Debug, Default)]
pub struct OrderNet {
    /// Edges `a → b` meaning `a ≤ b` (strict = `a < b`).
    edges: Vec<Vec<(u32, bool)>>,
    /// Disequality pairs.
    ne: Vec<(u32, u32)>,
    /// Constant value of a node, for constant nodes.
    constant: Vec<Option<ValueId>>,
    /// The constant nodes as `(value, node)`, sorted by value.
    consts: Vec<(ValueId, u32)>,
}

impl OrderNet {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables (including constant nodes).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Is the network empty?
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add a fresh (unconstrained) variable.
    pub fn new_var(&mut self) -> OrderVar {
        let id = self.edges.len() as u32;
        self.edges.push(Vec::new());
        self.constant.push(None);
        OrderVar(id)
    }

    /// The node of constant `value`, added on first use with chain edges
    /// to its neighbours in value order.
    pub fn const_var(&mut self, value: ValueId) -> OrderVar {
        let pos = match self.consts.binary_search_by(|&(c, _)| c.cmp(&value)) {
            Ok(i) => return OrderVar(self.consts[i].1),
            Err(pos) => pos,
        };
        let var = self.new_var();
        self.constant[var.index()] = Some(value);
        // Chain into the sorted constant order: prev < value < next.
        if pos > 0 {
            self.edges[self.consts[pos - 1].1 as usize].push((var.0, true));
        }
        if let Some(&(_, next)) = self.consts.get(pos) {
            self.edges[var.index()].push((next, true));
        }
        self.consts.insert(pos, (value, var.0));
        var
    }

    /// Assert `a op b`.
    pub fn assert_cmp(&mut self, a: OrderVar, op: CmpOp, b: OrderVar) {
        match op {
            CmpOp::Eq => {
                self.edges[a.index()].push((b.0, false));
                self.edges[b.index()].push((a.0, false));
            }
            CmpOp::Ne => self.ne.push((a.0, b.0)),
            CmpOp::Le => self.edges[a.index()].push((b.0, false)),
            CmpOp::Lt => self.edges[a.index()].push((b.0, true)),
            CmpOp::Ge => self.edges[b.index()].push((a.0, false)),
            CmpOp::Gt => self.edges[b.index()].push((a.0, true)),
        }
    }

    /// Strongly connected components over all (`≤` and `<`) edges.
    /// Returns the component id per node (components in reverse
    /// topological order, per Tarjan).
    fn sccs(&self) -> Vec<u32> {
        let comps = strongly_connected(self.len(), |v| self.edges[v].iter().map(|&(w, _)| w));
        comps.into_iter().map(|(comp, _)| comp).collect()
    }

    /// Check consistency over a dense ordered domain.
    pub fn check(&self) -> Result<(), OrderConflict> {
        let comp = self.sccs();
        // Strict edge inside an SCC = strict cycle.
        for (v, adj) in self.edges.iter().enumerate() {
            for &(w, strict) in adj {
                if strict && comp[v] == comp[w as usize] {
                    return Err(OrderConflict::StrictCycle);
                }
            }
        }
        // Distinct constants in one SCC.
        let mut const_in_comp: FxHashMap<u32, ValueId> = FxHashMap::default();
        for (v, &c) in self.constant.iter().enumerate() {
            if let Some(c) = c {
                if let Some(prev) = const_in_comp.insert(comp[v], c) {
                    if prev != c {
                        return Err(OrderConflict::ConstantsMerged(prev, c));
                    }
                }
            }
        }
        // ≠ inside an SCC.
        for &(a, b) in &self.ne {
            if comp[a as usize] == comp[b as usize] {
                return Err(OrderConflict::NeViolated);
            }
        }
        Ok(())
    }

    /// Reachability `a →* b`; when `need_strict`, some edge on the path
    /// must be strict.
    fn reaches(&self, a: OrderVar, b: OrderVar, need_strict: bool) -> bool {
        // BFS over (node, strict-seen) states.
        let n = self.len();
        let mut seen = vec![[false; 2]; n];
        let mut queue = std::collections::VecDeque::new();
        seen[a.index()][0] = true;
        queue.push_back((a.0, false));
        while let Some((v, s)) = queue.pop_front() {
            if v == b.0 && (s || !need_strict) {
                return true;
            }
            for &(w, strict) in &self.edges[v as usize] {
                let ns = s || strict;
                if !seen[w as usize][ns as usize] {
                    seen[w as usize][ns as usize] = true;
                    queue.push_back((w, ns));
                }
            }
        }
        false
    }

    /// Does the network entail `a op b`?
    ///
    /// Sound but (for `Ne`) not complete: `≠` is entailed when a strict
    /// relation holds either way, when an explicit `≠` links the two
    /// equality classes, or when the two sides are distinct constants.
    pub fn entails(&self, a: OrderVar, op: CmpOp, b: OrderVar) -> bool {
        match op {
            CmpOp::Le => self.reaches(a, b, false),
            CmpOp::Lt => self.reaches(a, b, true),
            CmpOp::Ge => self.reaches(b, a, false),
            CmpOp::Gt => self.reaches(b, a, true),
            CmpOp::Eq => self.reaches(a, b, false) && self.reaches(b, a, false),
            CmpOp::Ne => {
                if self.reaches(a, b, true) || self.reaches(b, a, true) {
                    return true;
                }
                // Explicit ≠ between the equality classes of a and b.
                self.ne.iter().any(|&(x, y)| {
                    let x = OrderVar(x);
                    let y = OrderVar(y);
                    (self.entails(a, CmpOp::Eq, x) && self.entails(b, CmpOp::Eq, y))
                        || (self.entails(a, CmpOp::Eq, y) && self.entails(b, CmpOp::Eq, x))
                })
            }
        }
    }
}

/// Try to assign a concrete integer to every variable of the network such
/// that every edge, every `≠` pair, and every constant pin is respected,
/// with **distinct values for distinct equality classes** (so facts the
/// network does not entail are falsified by the assignment).
///
/// Returns `None` when the network mentions non-integer constants or when
/// no integer assignment fits (e.g. three classes strictly between 3
/// and 5) — the network may still be satisfiable over a dense domain.
pub fn solve_integers(net: &OrderNet) -> Option<Vec<ValueId>> {
    if net.check().is_err() {
        return None;
    }
    let ints: Vec<Option<i64>> = net
        .constant
        .iter()
        .map(|c| c.and_then(ValueId::as_int))
        .collect();
    if net
        .constant
        .iter()
        .zip(&ints)
        .any(|(c, i)| c.is_some() && i.is_none())
    {
        return None; // non-integer constant
    }

    let comp = net.sccs();
    let comp_count = comp.iter().copied().max().map_or(0, |m| m as usize + 1);
    // Constant per SCC (consistency already guarantees uniqueness).
    let mut scc_const: Vec<Option<i64>> = vec![None; comp_count];
    for (v, i) in ints.iter().enumerate() {
        if let Some(i) = i {
            scc_const[comp[v] as usize] = Some(*i);
        }
    }
    // Condensed edges: (from SCC, to SCC, strict).
    let mut scc_in: Vec<Vec<(u32, bool)>> = vec![Vec::new(); comp_count];
    for (v, adj) in net.edges.iter().enumerate() {
        for &(w, strict) in adj {
            let (cv, cw) = (comp[v], comp[w as usize]);
            if cv != cw {
                scc_in[cw as usize].push((cv, strict));
            }
        }
    }
    // Tarjan numbers components in reverse topological order: for an edge
    // u → v, comp[v] < comp[u]. Descending ids therefore visit sources
    // (smallest values) first.
    let base = scc_const
        .iter()
        .flatten()
        .min()
        .copied()
        .unwrap_or(0)
        .saturating_sub(comp_count as i64 + 1);
    let mut value: Vec<Option<i64>> = vec![None; comp_count];
    let mut used: std::collections::BTreeSet<i64> = ints.iter().flatten().copied().collect();
    for scc in (0..comp_count).rev() {
        let min_req = scc_in[scc]
            .iter()
            .map(|&(pred, strict)| {
                value[pred as usize].expect("topological order violated") + i64::from(strict)
            })
            .max();
        match scc_const[scc] {
            Some(c) => {
                if min_req.is_some_and(|m| m > c) {
                    return None; // integer gap too tight
                }
                value[scc] = Some(c);
            }
            None => {
                let mut candidate = min_req.unwrap_or(base);
                while used.contains(&candidate) {
                    candidate += 1;
                }
                used.insert(candidate);
                value[scc] = Some(candidate);
            }
        }
    }
    // Full verification (greedy bumps may have violated an edge whose
    // target was assigned earlier — impossible in topo order, but keep the
    // checks as a safety net, including ≠ pairs).
    for (v, adj) in net.edges.iter().enumerate() {
        let a = value[comp[v] as usize]?;
        for &(w, strict) in adj {
            let b = value[comp[w as usize] as usize]?;
            if a > b || (strict && a == b) {
                return None;
            }
        }
    }
    for &(a, b) in &net.ne {
        if value[comp[a as usize] as usize] == value[comp[b as usize] as usize] {
            return None;
        }
    }
    Some(
        (0..net.len())
            .map(|v| ValueId::of(value[comp[v] as usize].expect("assigned")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_net_is_consistent() {
        let net = OrderNet::new();
        assert!(net.is_empty());
        assert_eq!(net.check(), Ok(()));
    }

    #[test]
    fn le_cycle_is_fine_strict_cycle_is_not() {
        let mut net = OrderNet::new();
        let a = net.new_var();
        let b = net.new_var();
        net.assert_cmp(a, CmpOp::Le, b);
        net.assert_cmp(b, CmpOp::Le, a);
        assert_eq!(net.check(), Ok(()));
        net.assert_cmp(a, CmpOp::Lt, b);
        assert_eq!(net.check(), Err(OrderConflict::StrictCycle));
    }

    #[test]
    fn bounds_through_constants_conflict() {
        // x ≤ 3 and x ≥ 5 → strict cycle through 3 < 5.
        let mut net = OrderNet::new();
        let x = net.new_var();
        let c3 = net.const_var(ValueId::of(3i64));
        let c5 = net.const_var(ValueId::of(5i64));
        net.assert_cmp(x, CmpOp::Le, c3);
        net.assert_cmp(x, CmpOp::Ge, c5);
        assert_eq!(net.check(), Err(OrderConflict::StrictCycle));
    }

    #[test]
    fn constant_interning_is_stable() {
        let mut net = OrderNet::new();
        let a = net.const_var(ValueId::of(1i64));
        let b = net.const_var(ValueId::of(1i64));
        assert_eq!(a, b);
        assert_eq!(net.constant[a.index()], Some(ValueId::of(1i64)));
    }

    #[test]
    fn chain_edges_order_constants_regardless_of_insertion_order() {
        let mut net = OrderNet::new();
        let c5 = net.const_var(ValueId::of(5i64));
        let c1 = net.const_var(ValueId::of(1i64));
        let c3 = net.const_var(ValueId::of(3i64));
        assert!(net.entails(c1, CmpOp::Lt, c3));
        assert!(net.entails(c3, CmpOp::Lt, c5));
        assert!(net.entails(c1, CmpOp::Lt, c5));
        assert!(!net.entails(c5, CmpOp::Le, c1));
        assert_eq!(net.check(), Ok(()));
    }

    #[test]
    fn ne_with_forced_equality_conflicts() {
        let mut net = OrderNet::new();
        let a = net.new_var();
        let b = net.new_var();
        net.assert_cmp(a, CmpOp::Eq, b);
        net.assert_cmp(a, CmpOp::Ne, b);
        assert_eq!(net.check(), Err(OrderConflict::NeViolated));
    }

    #[test]
    fn distinct_constants_forced_equal_conflict() {
        let mut net = OrderNet::new();
        let x = net.new_var();
        let c1 = net.const_var(ValueId::of(1i64));
        let c2 = net.const_var(ValueId::of(2i64));
        net.assert_cmp(x, CmpOp::Eq, c1);
        net.assert_cmp(x, CmpOp::Eq, c2);
        // The cycle 1 ≤ x ≤ 2 plus chain edge 1 < 2 makes a strict cycle;
        // either conflict kind is a correct refusal.
        assert!(net.check().is_err());
    }

    #[test]
    fn entailment_le_lt_eq() {
        let mut net = OrderNet::new();
        let a = net.new_var();
        let b = net.new_var();
        let c = net.new_var();
        net.assert_cmp(a, CmpOp::Lt, b);
        net.assert_cmp(b, CmpOp::Le, c);
        assert!(net.entails(a, CmpOp::Lt, c));
        assert!(net.entails(a, CmpOp::Le, c));
        assert!(net.entails(c, CmpOp::Gt, a));
        assert!(net.entails(c, CmpOp::Ge, a));
        assert!(!net.entails(a, CmpOp::Eq, c));
        assert!(net.entails(a, CmpOp::Ne, c), "strict implies distinct");
    }

    #[test]
    fn entailment_eq_via_mutual_le() {
        let mut net = OrderNet::new();
        let a = net.new_var();
        let b = net.new_var();
        net.assert_cmp(a, CmpOp::Le, b);
        net.assert_cmp(b, CmpOp::Le, a);
        assert!(net.entails(a, CmpOp::Eq, b));
        assert!(!net.entails(a, CmpOp::Ne, b));
    }

    #[test]
    fn explicit_ne_lifts_to_equality_classes() {
        let mut net = OrderNet::new();
        let a = net.new_var();
        let b = net.new_var();
        let a2 = net.new_var();
        net.assert_cmp(a, CmpOp::Eq, a2);
        net.assert_cmp(a2, CmpOp::Ne, b);
        assert!(net.entails(a, CmpOp::Ne, b));
        assert!(net.entails(b, CmpOp::Ne, a));
    }

    #[test]
    fn no_spurious_entailments_on_fresh_vars() {
        let mut net = OrderNet::new();
        let a = net.new_var();
        let b = net.new_var();
        for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Ne, CmpOp::Eq] {
            assert!(!net.entails(a, op, b), "{op:?} must not be entailed");
        }
        // Reflexive Le/Eq hold trivially.
        assert!(net.entails(a, CmpOp::Le, a));
        assert!(net.entails(a, CmpOp::Eq, a));
    }

    #[test]
    fn string_constants_are_ordered_lexicographically() {
        let mut net = OrderNet::new();
        let ca = net.const_var(ValueId::of("apple"));
        let cb = net.const_var(ValueId::of("banana"));
        assert!(net.entails(ca, CmpOp::Lt, cb));
        assert_eq!(net.check(), Ok(()));
    }
}
