//! Detection work units: pivot batches over the *data* graph.
//!
//! A detection unit mirrors the paper's reasoning unit `(Q[z], ϕ)` — and
//! is the same type, [`WorkUnit`]: one rule plus a batch of candidate
//! pivot nodes ([`Prefix::Pivots`]). TTL splitting turns a straggler's
//! untried branches into prefix units exactly like `ParSat`'s Example 6.

use gfd_core::{DepSet, Literal, Prefix, WorkUnit};
use gfd_graph::{GfdId, MatchIndex, NodeId, VarId};
use gfd_match::MatchPlan;

/// Per-rule matching context shared by all workers.
#[derive(Default)]
pub struct RulePlans {
    /// Pivot variable per rule.
    pub pivots: Vec<VarId>,
    /// Pivoted match plan per rule.
    pub plans: Vec<MatchPlan>,
    /// [`premise_schedule`] of each rule under its plan.
    pub due: Vec<Vec<Vec<usize>>>,
}

/// Where each premise literal becomes *due*: entry `pos` lists the indices
/// (into `premise`) of the literals whose last-bound variable — the later
/// of the two for an attribute–attribute literal — sits at plan position
/// `pos`. Each is due exactly once and reads no unbound slot, so checking
/// the due literals at every bind is the premise, as early as it can fail.
pub fn premise_schedule(premise: &[Literal], plan: &MatchPlan) -> Vec<Vec<usize>> {
    let mut due = vec![Vec::new(); plan.len()];
    for (i, lit) in premise.iter().enumerate() {
        let pos = lit.vars().map(|v| plan.pos_of(v)).max();
        due[pos.expect("a literal reads a variable")].push(i);
    }
    due
}

impl RulePlans {
    /// Choose pivots (most selective label, highest degree) and build
    /// pivoted plans for every rule against the data-graph index. Any
    /// [`MatchIndex`] serves: the incremental engine re-plans against its
    /// `DeltaIndex` after each batch, so pivots and variable orders track
    /// the overlay-adjusted frequencies rather than the frozen base.
    pub fn build<I: MatchIndex>(sigma: &DepSet, index: &I) -> Self {
        let mut out = RulePlans::default();
        for (_, dep) in sigma.iter() {
            let pivot = gfd_core::choose_pivot(&dep.pattern, index);
            let plan = MatchPlan::build(&dep.pattern, Some(pivot), Some(index));
            out.pivots.push(pivot);
            out.due.push(premise_schedule(&dep.premise, &plan));
            out.plans.push(plan);
        }
        out
    }
}

/// Build the initial unit queue: for every rule, the pivot candidates are
/// chunked into batches of at most `batch_size`.
///
/// Rules are interleaved round-robin so that early termination (violation
/// budget) sees a sample of every rule rather than exhausting rule 0 first.
pub fn initial_units<I: MatchIndex>(
    sigma: &DepSet,
    index: &I,
    plans: &RulePlans,
    batch_size: usize,
) -> Vec<WorkUnit> {
    let per_rule = sigma
        .iter()
        .map(|(id, dep)| {
            let pivot = plans.pivots[id.index()];
            (id, index.candidates(dep.pattern.label(pivot)).to_vec())
        })
        .collect();
    units_for_pivots(per_rule, batch_size)
}

/// Build a unit queue from explicit per-rule pivot lists, batched and
/// round-robin interleaved like [`initial_units`]. The incremental
/// engine feeds this the dirty-frontier pivots of each rule.
pub fn units_for_pivots(
    rule_pivots: Vec<(GfdId, Vec<NodeId>)>,
    batch_size: usize,
) -> Vec<WorkUnit> {
    let batch_size = batch_size.max(1);
    let mut per_rule: Vec<std::vec::IntoIter<WorkUnit>> = Vec::with_capacity(rule_pivots.len());
    for (id, candidates) in rule_pivots {
        let batches: Vec<WorkUnit> = candidates
            .chunks(batch_size)
            .map(|chunk| WorkUnit {
                gfd: id,
                prefix: Prefix::Pivots(chunk.into()),
                priority: 0,
            })
            .collect();
        per_rule.push(batches.into_iter());
    }
    // Round-robin interleave.
    let mut out = Vec::new();
    loop {
        let mut emitted = false;
        for queue in &mut per_rule {
            if let Some(u) = queue.next() {
                out.push(u);
                emitted = true;
            }
        }
        if !emitted {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{Dependency, Literal};
    use gfd_graph::{Graph, LabelIndex, Pattern, Vocab};

    fn two_rule_setup() -> (Graph, DepSet, Vocab) {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let u = vocab.label("u");
        let a = vocab.attr("a");
        let mut p1 = Pattern::new();
        let x1 = p1.add_node(t, "x");
        let g1 = Dependency::new("g1", p1, vec![], vec![Literal::eq_const(x1, a, 1i64)]);
        let mut p2 = Pattern::new();
        let x2 = p2.add_node(u, "x");
        let g2 = Dependency::new("g2", p2, vec![], vec![Literal::eq_const(x2, a, 1i64)]);
        let mut g = Graph::new();
        for _ in 0..5 {
            g.add_node(t);
        }
        for _ in 0..3 {
            g.add_node(u);
        }
        (g, gfd_core::DepSet::from_vec(vec![g1, g2]), vocab)
    }

    #[test]
    fn batches_cover_all_candidates() {
        let (g, sigma, _) = two_rule_setup();
        let index = LabelIndex::build(&g);
        let plans = RulePlans::build(&sigma, &index);
        let units = initial_units(&sigma, &index, &plans, 2);
        // Rule 0: 5 candidates → 3 batches; rule 1: 3 candidates → 2 batches.
        assert_eq!(units.len(), 5);
        let mut seen = [0usize; 2];
        for u in &units {
            if let Prefix::Pivots(batch) = &u.prefix {
                assert!(batch.len() <= 2);
                seen[u.gfd.index()] += batch.len();
            }
        }
        assert_eq!(seen, [5, 3]);
    }

    #[test]
    fn units_are_interleaved_round_robin() {
        let (g, sigma, _) = two_rule_setup();
        let index = LabelIndex::build(&g);
        let plans = RulePlans::build(&sigma, &index);
        let units = initial_units(&sigma, &index, &plans, 2);
        // First two units must come from distinct rules.
        assert_ne!(units[0].gfd, units[1].gfd);
    }

    #[test]
    fn every_premise_literal_is_due_once_where_its_last_variable_binds() {
        // x → y → z → w plus a detached v; literals of every shape: one
        // variable, two on one variable, adjacent and far-apart pairs, a
        // pair across the components, a variable against itself.
        let mut vocab = Vocab::new();
        let (t, e) = (vocab.label("t"), vocab.label("e"));
        let (a, b) = (vocab.attr("a"), vocab.attr("b"));
        let mut p = Pattern::new();
        let vars: Vec<_> = ["x", "y", "z", "w", "v"].map(|n| p.add_node(t, n)).into();
        for pair in vars[..4].windows(2) {
            p.add_edge(pair[0], e, pair[1]);
        }
        let mut premise: Vec<Literal> = vars
            .iter()
            .map(|&v| Literal::eq_const(v, a, 1i64))
            .collect();
        premise.push(Literal::eq_const(vars[1], b, 2i64));
        premise.push(Literal::eq_attr(vars[2], a, vars[2], b));
        for (i, &u) in vars.iter().enumerate() {
            for &v in &vars[i + 1..] {
                premise.push(Literal::eq_attr(u, a, v, b));
                premise.push(Literal::eq_attr(v, b, u, a));
            }
        }
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..4).map(|_| g.add_node(t)).collect();
        g.add_edge(nodes[0], e, nodes[1]);
        let index = LabelIndex::build(&g);

        for &pivot in &vars {
            for plan in [
                MatchPlan::build(&p, Some(pivot), Some(&index)),
                MatchPlan::structural(&p, Some(pivot)),
            ] {
                assert_eq!(plan.var_at(0), pivot);
                let due = premise_schedule(&premise, &plan);
                assert_eq!(due.len(), plan.len());
                let scheduled: usize = due.iter().map(Vec::len).sum();
                assert_eq!(scheduled, premise.len(), "each literal exactly once");
                for (i, lit) in premise.iter().enumerate() {
                    let last = lit.vars().map(|v| plan.pos_of(v)).max().unwrap();
                    assert!(
                        due[last].contains(&i),
                        "pivot {pivot:?}: literal {i} is due at position {last}, got {due:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_batch_when_batch_size_large() {
        let (g, sigma, _) = two_rule_setup();
        let index = LabelIndex::build(&g);
        let plans = RulePlans::build(&sigma, &index);
        let units = initial_units(&sigma, &index, &plans, 100);
        assert_eq!(units.len(), 2);
    }
}
