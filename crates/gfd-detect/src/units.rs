//! Detection work units: pivot batches over the *data* graph.
//!
//! A detection unit has the shape of an initial reasoning unit — the same
//! type, [`WorkUnit`]: one rule plus a batch of candidate pivot nodes
//! ([`Prefix::Pivots`]). TTL splitting turns a straggler's untried
//! branches into prefix units exactly like `ParSat`'s Example 6, and its
//! untried pivots into one batch.
//!
//! One deviation (DESIGN.md §7): rules whose patterns are structurally
//! identical share their units. A unit's rule is the leader of a
//! [`Group`], and its one search checks every member's premise (ROADMAP
//! [share (c)]).

use gfd_core::validate::literal_holds;
use gfd_core::{DepSet, Literal, Members, Prefix, WorkUnit, GROUP_WIDTH};
use gfd_graph::{GfdId, Graph, LabelId, MatchIndex, NodeId, PatternEdge, VarId};
use gfd_match::MatchPlan;
use std::collections::HashMap;

/// The rules' search groups and their plans, shared by all workers.
#[derive(Default)]
pub struct RulePlans {
    /// The search groups, in the order of their leaders.
    pub groups: Vec<Group>,
    /// Per rule, the index of its group in `groups`.
    group_of: Vec<u32>,
}

/// Rules that share one search: their patterns are structurally identical
/// (the same labels in variable order, the same edge list), so they get one
/// pivot and one plan; and their consequences are of one kind (literal or
/// generating), so the incremental engine re-runs all of them on the same
/// pivots. Each member keeps its own premise, consequence and statistics.
pub struct Group {
    /// The members in rule-id order, at most [`GROUP_WIDTH`]: bit `i` of a
    /// [`Members`] set is `members[i]`. The first is the group's leader,
    /// the rule its units carry.
    pub members: Vec<GfdId>,
    /// The pivoted plan every member shares.
    pub plan: MatchPlan,
    /// Per plan position, the distinct premise literals due there (see
    /// [`premise_schedule`]), each with the members whose premise has it.
    due: Vec<Vec<(Literal, Members)>>,
}

impl Group {
    /// Every member.
    pub fn all(&self) -> Members {
        Members::MAX >> (GROUP_WIDTH - self.members.len())
    }

    /// The members of `alive` whose premise literals due at plan position
    /// `pos` hold on `partial`: a literal due at `pos` reads only variables
    /// bound by then, so it holds or fails alike on every completion of the
    /// branch.
    pub fn admit(
        &self,
        graph: &Graph,
        pos: usize,
        partial: &[NodeId],
        mut alive: Members,
    ) -> Members {
        for (lit, members) in &self.due[pos] {
            if alive & members != 0 && !literal_holds(graph, lit, partial) {
                alive &= !members;
            }
        }
        alive
    }

    /// The members in `set`, in rule-id order.
    pub fn members_in(&self, mut set: Members) -> impl Iterator<Item = GfdId> + '_ {
        std::iter::from_fn(move || {
            let i = set.trailing_zeros() as usize;
            set &= set.wrapping_sub(1);
            self.members.get(i).copied()
        })
    }
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
    /// Group the rules, choose each group's pivot (most selective label,
    /// highest degree) and build its pivoted plan against the data-graph
    /// index. Any [`MatchIndex`] serves: the incremental engine re-plans
    /// against its `DeltaIndex` after each batch, so pivots and variable
    /// orders track the overlay-adjusted frequencies rather than the
    /// frozen base.
    pub fn build<I: MatchIndex>(sigma: &DepSet, index: &I) -> Self {
        type Shape<'s> = (&'s [LabelId], &'s [PatternEdge], bool);
        let mut out = RulePlans::default();
        // The group each shape's next rule joins while it has room.
        let mut open: HashMap<Shape<'_>, usize> = HashMap::new();
        for (id, dep) in sigma.iter() {
            let p = &dep.pattern;
            let shape = (p.node_labels(), p.edges(), dep.is_generating());
            let g = match open.get(&shape) {
                Some(&g) if out.groups[g].members.len() < GROUP_WIDTH => g,
                _ => {
                    let pivot = gfd_core::choose_pivot(p, index);
                    let plan = MatchPlan::build(p, Some(pivot), Some(index));
                    out.groups.push(Group {
                        members: Vec::new(),
                        due: vec![Vec::new(); plan.len()],
                        plan,
                    });
                    open.insert(shape, out.groups.len() - 1);
                    out.groups.len() - 1
                }
            };
            let group = &mut out.groups[g];
            let bit: Members = 1 << group.members.len();
            group.members.push(id);
            let schedule = premise_schedule(&dep.premise, &group.plan);
            for (due, lits) in group.due.iter_mut().zip(schedule) {
                for lit in lits.into_iter().map(|i| &dep.premise[i]) {
                    match due.iter_mut().find(|(l, _)| l == lit) {
                        Some((_, members)) => *members |= bit,
                        None => due.push((lit.clone(), bit)),
                    }
                }
            }
            out.group_of.push(g as u32);
        }
        out
    }

    /// The group of `rule` (any member).
    pub fn group(&self, rule: GfdId) -> &Group {
        &self.groups[self.group_of[rule.index()] as usize]
    }

    /// The pivot variable of `rule`.
    pub fn pivot(&self, rule: GfdId) -> VarId {
        self.group(rule).plan.var_at(0)
    }
}

/// Build the initial unit queue: for every group, the pivot candidates are
/// chunked into batches of at most `batch_size`, each a unit of the
/// group's leader.
///
/// Groups are interleaved round-robin so that early termination (violation
/// budget) sees a sample of every group rather than exhausting the first.
pub fn initial_units<I: MatchIndex>(
    sigma: &DepSet,
    index: &I,
    plans: &RulePlans,
    batch_size: usize,
) -> Vec<WorkUnit> {
    let per_group = plans
        .groups
        .iter()
        .map(|group| {
            let leader = group.members[0];
            let label = sigma.get(leader).pattern.label(group.plan.var_at(0));
            (leader, index.candidates(label).to_vec())
        })
        .collect();
    units_for_pivots(per_group, batch_size)
}

/// Build a unit queue from explicit per-group pivot lists (each keyed by
/// the group's leader), batched and round-robin interleaved like
/// [`initial_units`]. The incremental engine feeds this the
/// dirty-frontier pivots of each group.
pub fn units_for_pivots(
    group_pivots: Vec<(GfdId, Vec<NodeId>)>,
    batch_size: usize,
) -> Vec<WorkUnit> {
    let batch_size = batch_size.max(1);
    let mut per_group: Vec<std::vec::IntoIter<WorkUnit>> = Vec::with_capacity(group_pivots.len());
    for (id, candidates) in group_pivots {
        let batches: Vec<WorkUnit> = candidates
            .chunks(batch_size)
            .map(|chunk| WorkUnit {
                gfd: id,
                prefix: Prefix::Pivots(chunk.into()),
            })
            .collect();
        per_group.push(batches.into_iter());
    }
    // Round-robin interleave.
    let mut out = Vec::new();
    loop {
        let mut emitted = false;
        for queue in &mut per_group {
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

    /// Rules group when their labels and edge lists agree (variable names
    /// do not matter) and their consequences are of one kind; a premise
    /// literal two members share is one check carrying both their bits.
    #[test]
    fn rules_group_by_shape_and_consequence_kind() {
        let mut vocab = Vocab::new();
        let (t, u, e) = (vocab.label("t"), vocab.label("u"), vocab.label("e"));
        let a = vocab.attr("a");
        let edge = |src: &str, dst_label, reversed: bool| {
            let mut p = Pattern::new();
            let x = p.add_node(t, src);
            let y = p.add_node(dst_label, "y");
            if reversed {
                p.add_edge(y, e, x);
            } else {
                p.add_edge(x, e, y);
            }
            p
        };
        let (x, y) = (VarId::new(0), VarId::new(1));
        let literal = |p, premise: Vec<Literal>| {
            Dependency::new("r", p, premise, vec![Literal::eq_attr(x, a, y, a)])
        };
        let shared = Literal::eq_const(x, a, 1i64);
        let mut gen = gfd_core::GenerateConsequence::over(&edge("x", t, false));
        let fresh = gen.add_fresh(u, "f");
        gen.add_edge(y, e, fresh);
        let sigma = DepSet::from_vec(vec![
            literal(edge("x", t, false), vec![shared.clone()]),
            Dependency::new("gen", edge("x", t, false), vec![], gen),
            literal(edge("x", t, true), vec![shared.clone()]),
            literal(
                edge("renamed", t, false),
                vec![shared.clone(), Literal::eq_const(y, a, 2i64)],
            ),
            literal(edge("x", u, false), vec![]),
        ]);
        let mut g = Graph::new();
        let (n0, n1) = (g.add_node(t), g.add_node(t));
        g.add_edge(n0, e, n1);
        g.add_node(u);
        let index = LabelIndex::build(&g);
        let plans = RulePlans::build(&sigma, &index);
        let members: Vec<Vec<usize>> = plans
            .groups
            .iter()
            .map(|g| g.members.iter().map(|r| r.index()).collect())
            .collect();
        assert_eq!(members, [vec![0, 3], vec![1], vec![2], vec![4]]);
        let group = plans.group(GfdId::new(3));
        assert_eq!(group.all(), 0b11);
        assert_eq!(plans.pivot(GfdId::new(3)), plans.pivot(GfdId::new(0)));
        let due: Vec<_> = group.due.iter().flatten().collect();
        assert_eq!(
            due,
            [&(shared, 0b11), &(Literal::eq_const(y, a, 2i64), 0b10)]
        );
        let units = initial_units(&sigma, &index, &plans, 1);
        let leaders: Vec<usize> = units.iter().map(|u| u.gfd.index()).collect();
        // Two `t` pivots for each `t`-pivoted group, one `u` pivot for rule 4.
        assert_eq!(leaders, [0, 1, 2, 4, 0, 1, 2]);
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
