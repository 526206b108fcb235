//! The shared deterministic-enforcement scan used by both GED
//! satisfiability ([`crate::sat`]) and implication ([`crate::imp`]).
//!
//! One call to [`fixpoint_round`] repeatedly re-quotients the canonical
//! graph, matches every GED pattern, and enforces single-disjunct
//! consequences whose premise is entailed, until nothing changes. It then
//! reports what (if anything) requires *branching*: a fired disjunctive
//! consequence, or an undetermined grounded premise literal. The two
//! callers differ only in the quantifier they apply over branches —
//! existential for satisfiability, universal for implication.
//!
//! The quotient is the store's [`Quotient`](crate::store::Quotient), the
//! one builder shared with witness extraction and entity resolution. A
//! match in it maps back to base nodes through `rep` (each class node's
//! first base node); `rep` is injective, so no match is enforced twice in
//! one scan.

use crate::ged::{Ged, GedLiteral, GedSet};
use crate::store::GedStore;
use gfd_graph::{Graph, LabelIndex, NodeId};
use gfd_match::find_all_matches;

/// What the fixpoint scan decided must happen next.
pub(crate) enum NextStep {
    /// The branch is inconsistent (a denial fired or an assertion
    /// conflicted).
    Fail,
    /// Fixpoint reached; nothing to branch on.
    Quiescent,
    /// Branch over the consequence disjuncts of GED `.0` at match `.1`.
    ChooseDisjunct(usize, Vec<NodeId>),
    /// Branch on premise literal `.1` of GED `.0` at match `.2`.
    BranchPremise(usize, usize, Vec<NodeId>),
}

enum MatchStep {
    Ok,
    Fail,
    Choice,
    Premise(usize),
}

/// Run deterministic enforcement to quiescence; see the module docs.
pub(crate) fn fixpoint_round(sigma: &GedSet, base: &Graph, store: &mut GedStore) -> NextStep {
    loop {
        let version_before = store.version();
        let q = store.quotient(base);
        let index = LabelIndex::build(&q.graph);

        let mut pending_choice: Option<(usize, Vec<NodeId>)> = None;
        let mut pending_premise: Option<(usize, usize, Vec<NodeId>)> = None;

        'scan: for (id, ged) in sigma.iter() {
            for m in find_all_matches(&q.graph, &index, &ged.pattern) {
                let mb: Vec<NodeId> = m.iter().map(|n| q.rep[n.index()]).collect();
                match process_match(store, ged, &mb) {
                    MatchStep::Ok => {}
                    MatchStep::Fail => return NextStep::Fail,
                    MatchStep::Choice => {
                        if pending_choice.is_none() {
                            pending_choice = Some((id.index(), mb));
                        }
                    }
                    MatchStep::Premise(lit_idx) => {
                        if pending_premise.is_none() {
                            pending_premise = Some((id.index(), lit_idx, mb));
                        }
                    }
                }
                // Any store change may invalidate the quotient matching
                // (node merges rewire it); restart the scan.
                if store.version() != version_before {
                    break 'scan;
                }
            }
        }

        if store.version() != version_before {
            continue;
        }
        if let Some((g, m)) = pending_choice {
            return NextStep::ChooseDisjunct(g, m);
        }
        if let Some((g, l, m)) = pending_premise {
            return NextStep::BranchPremise(g, l, m);
        }
        return NextStep::Quiescent;
    }
}

/// Enforce one GED at one (base-representative) match.
fn process_match(store: &mut GedStore, ged: &Ged, mb: &[NodeId]) -> MatchStep {
    // Premise status: entailed / refuted / falsifiable / undetermined.
    let mut undetermined: Option<usize> = None;
    for (i, lit) in ged.premise.iter().enumerate() {
        if store.literal_entailed(lit, mb) {
            continue;
        }
        if store.literal_refuted(lit, mb) {
            return MatchStep::Ok; // premise dead
        }
        match lit {
            // Id premises are falsified by keeping the nodes distinct —
            // the minimal model never merges what the chase did not merge.
            GedLiteral::Id { .. } => return MatchStep::Ok,
            _ => {
                if store.literal_grounded(lit, mb) {
                    if undetermined.is_none() {
                        undetermined = Some(i);
                    }
                } else {
                    // Absent attribute: falsified by omission (§III
                    // schemaless semantics).
                    return MatchStep::Ok;
                }
            }
        }
    }
    if let Some(i) = undetermined {
        return MatchStep::Premise(i);
    }
    // Premise entailed: enforce the consequence.
    if ged
        .disjuncts
        .iter()
        .any(|d| d.iter().all(|lit| store.literal_entailed(lit, mb)))
    {
        return MatchStep::Ok; // already satisfied
    }
    match ged.disjuncts.len() {
        0 => MatchStep::Fail, // denial fired
        1 => {
            for lit in &ged.disjuncts[0] {
                if store.assert_literal(lit, mb).is_err() {
                    return MatchStep::Fail;
                }
            }
            MatchStep::Ok
        }
        _ => MatchStep::Choice,
    }
}
