//! The enforcement engine: the `Expand`/`CheckAttr` machinery of §IV-C.
//!
//! Given matches of GFD patterns in a canonical graph, the engine
//!
//! 1. evaluates the premise `X` against the current equivalence relation
//!    (satisfied / permanently falsified / pending);
//! 2. enforces the consequence `Y` with the two expansion rules (constant
//!    binding, attribute merging), keeping the resulting [`EqOp`]s until
//!    the driver appends them to its `ΔEq` log;
//! 3. keeps the paper's *inverted index*: matches whose premise is pending
//!    are registered as watchers on the attributes they wait for, and are
//!    rechecked (cascaded) when those attributes are instantiated or
//!    merged.
//!
//! The same engine backs `SeqSat`, `SeqImp`, the parallel workers, and the
//! chase baseline.

use crate::dependency::{DepSet, Dependency};
use crate::eq::{EqOp, EqRel};
use crate::error::{AttrKey, Conflict};
use crate::literal::{Literal, Operand};
use gfd_graph::{GfdId, NodeId};

/// The status of a premise `X` under a partial attribute assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PremiseStatus {
    /// Every literal holds; the consequence must be enforced.
    Satisfied,
    /// Some literal compares two distinct constants — since constants never
    /// change, the premise can never hold: drop the match.
    Falsified,
    /// Some literal waits on uninstantiated attributes (the keys
    /// [`eval_premise`] wrote to its `waiting` buffer); the match must be
    /// rechecked when they change.
    Pending,
}

/// Evaluate a rule's premise literals at `m` against `eq`, which it only
/// reads. `waiting` is a scratch buffer the caller lends: it is cleared,
/// and on `Pending` holds the keys the premise waits on.
pub fn eval_premise(
    eq: &EqRel,
    premise: &[Literal],
    m: &[NodeId],
    waiting: &mut Vec<AttrKey>,
) -> PremiseStatus {
    waiting.clear();
    for lit in premise {
        let k1: AttrKey = (m[lit.var.index()], lit.attr);
        match &lit.rhs {
            Operand::Const(c) => match eq.const_of(k1) {
                Some(v) if v == *c => {}
                Some(_) => return PremiseStatus::Falsified,
                None => waiting.push(k1),
            },
            Operand::Attr(var2, attr2) => {
                let k2: AttrKey = (m[var2.index()], *attr2);
                if k1 == k2 {
                    // Reflexive literal `x.A = x.A`: holds exactly when
                    // the attribute is forced to exist. A latent class
                    // (created only by watcher registration) does not
                    // count — the population may omit it.
                    if !eq.is_materialized(k1) {
                        waiting.push(k1);
                    }
                    continue;
                }
                if eq.same_class(k1, k2) {
                    continue;
                }
                match (eq.const_of(k1), eq.const_of(k2)) {
                    (Some(a), Some(b)) if a == b => {}
                    (Some(_), Some(_)) => return PremiseStatus::Falsified,
                    _ => {
                        waiting.push(k1);
                        waiting.push(k2);
                    }
                }
            }
        }
    }
    if waiting.is_empty() {
        PremiseStatus::Satisfied
    } else {
        PremiseStatus::Pending
    }
}

/// A match whose premise was pending when first seen. Its nodes are
/// `EnforceEngine::matches[offset..offset + arity]`.
#[derive(Clone, Copy, Debug)]
struct PendingEntry {
    rule: GfdId,
    offset: u32,
    arity: u32,
    resolved: bool,
    /// Bumped on each (re-)registration; stale watcher copies are skipped.
    epoch: u32,
}

impl PendingEntry {
    /// The match, read from the engine's arena.
    fn m<'a>(&self, matches: &'a [NodeId]) -> &'a [NodeId] {
        &matches[self.offset as usize..][..self.arity as usize]
    }
}

/// Counters exposed for benchmarks and the paper's ablation studies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Matches that entered the pending (inverted) index.
    pub pending_registered: u64,
    /// Pending rechecks triggered by attribute instantiation.
    pub rechecks: u64,
}

/// The enforcement engine over one canonical graph. Its state lives in
/// flat arenas — pending matches back to back in one `Vec<NodeId>`,
/// watchers and the wake queue in the relation's watcher arena — so it
/// allocates when an arena grows, not per match.
#[derive(Clone, Debug, Default)]
pub struct EnforceEngine {
    /// The equivalence relation being expanded.
    pub eq: EqRel,
    pending: Vec<PendingEntry>,
    /// The pending matches' nodes.
    matches: Vec<NodeId>,
    /// [`eval_premise`]'s scratch: the keys the last pending premise waits on.
    waiting: Vec<AttrKey>,
    /// The ops enforced since the driver last appended them to its `ΔEq`
    /// log.
    pub(crate) delta: Vec<EqOp>,
    /// Statistics counters.
    pub stats: EngineStats,
}

impl EnforceEngine {
    /// A fresh engine with an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh engine starting from an existing relation (e.g. `EqX` for
    /// implication checking).
    pub fn with_eq(eq: EqRel) -> Self {
        EnforceEngine {
            eq,
            ..Self::default()
        }
    }

    /// Process one match of `gfd` (identified by `id` within `sigma`):
    /// evaluate the premise, enforce or register, then cascade rechecks.
    /// The match is only borrowed — typically lent by the matcher — and
    /// copied into the arena just when it has to wait in the pending index.
    pub fn process_match(
        &mut self,
        sigma: &DepSet,
        id: GfdId,
        m: &[NodeId],
    ) -> Result<(), Conflict> {
        let gfd = &sigma[id];
        match eval_premise(&self.eq, &gfd.premise, m, &mut self.waiting) {
            PremiseStatus::Falsified => Ok(()),
            PremiseStatus::Satisfied => {
                enforce_consequence(&mut self.eq, &mut self.delta, gfd, id, m)?;
                self.cascade(sigma)
            }
            PremiseStatus::Pending => {
                self.register_pending(id, m);
                Ok(())
            }
        }
    }

    /// Copy `m` into the arena and watch the keys in `waiting`.
    fn register_pending(&mut self, rule: GfdId, m: &[NodeId]) {
        self.stats.pending_registered += 1;
        let id = self.pending.len() as u32;
        let offset = u32::try_from(self.matches.len()).expect("pending arena overflow");
        self.matches.extend_from_slice(m);
        self.pending.push(PendingEntry {
            rule,
            offset,
            arity: m.len() as u32,
            resolved: false,
            epoch: 0,
        });
        for &key in &self.waiting {
            self.eq.add_watcher(key, (id, 0));
        }
    }

    /// Recheck woken pending matches until the wake queue drains (the
    /// fixpoint cascade driven by the inverted index). A match is read in
    /// place: enforcement writes the relation, the log and the queue,
    /// never the pending arena.
    pub fn cascade(&mut self, sigma: &DepSet) -> Result<(), Conflict> {
        while let Some((id, epoch)) = self.eq.pop_woken() {
            let entry = self.pending[id as usize];
            if entry.resolved || entry.epoch != epoch {
                continue;
            }
            self.stats.rechecks += 1;
            let gfd = &sigma[entry.rule];
            let m = entry.m(&self.matches);
            match eval_premise(&self.eq, &gfd.premise, m, &mut self.waiting) {
                PremiseStatus::Falsified => self.pending[id as usize].resolved = true,
                PremiseStatus::Satisfied => {
                    self.pending[id as usize].resolved = true;
                    enforce_consequence(&mut self.eq, &mut self.delta, gfd, entry.rule, m)?;
                }
                PremiseStatus::Pending => {
                    let epoch = entry.epoch + 1;
                    self.pending[id as usize].epoch = epoch;
                    for &key in &self.waiting {
                        self.eq.add_watcher(key, (id, epoch));
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply ops produced by another engine (a remote worker's `ΔEq`),
    /// *without* re-recording them, then cascade local rechecks.
    pub fn apply_remote_ops(&mut self, sigma: &DepSet, ops: &[EqOp]) -> Result<(), Conflict> {
        for op in ops {
            self.eq.apply_op(op)?;
        }
        self.cascade(sigma)
    }
}

/// Enforce the consequence `Y` of `gfd` at match `m` (Rules 1 and 2),
/// logging each change in `delta`; the relation queues the watchers it
/// wakes. Panics on a generating consequence, which [`crate::run_reason`]
/// keeps out by checking its Σ up front.
fn enforce_consequence(
    eq: &mut EqRel,
    delta: &mut Vec<EqOp>,
    gfd: &Dependency,
    id: GfdId,
    m: &[NodeId],
) -> Result<(), Conflict> {
    let lits = gfd.consequence.literals();
    for lit in lits.expect("enforcement admits literal consequences only") {
        let k1: AttrKey = (m[lit.var.index()], lit.attr);
        let op = match &lit.rhs {
            Operand::Const(c) => EqOp::Bind(k1, *c),
            Operand::Attr(var2, attr2) => EqOp::Merge(k1, (m[var2.index()], *attr2)),
        };
        if eq.apply_op(&op).map_err(|e| e.with_gfd(id))? {
            delta.push(op);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use gfd_graph::{NodeId, Pattern, ValueId, VarId, Vocab};

    impl EnforceEngine {
        /// Number of unresolved pending matches.
        pub(crate) fn pending_count(&self) -> usize {
            self.pending.iter().filter(|p| !p.resolved).count()
        }

        /// The unresolved pending matches, in registration order, read in
        /// place — what the convergence oracle (`driver` tests) replays.
        pub(crate) fn unresolved(&self) -> impl Iterator<Item = (GfdId, &[NodeId])> + '_ {
            (self.pending.iter().filter(|p| !p.resolved)).map(|p| (p.rule, p.m(&self.matches)))
        }
    }

    /// One-variable pattern; the canonical graph is a single node, matches
    /// are trivial.
    fn unary_gfd(
        vocab: &mut Vocab,
        name: &str,
        premise: Vec<Literal>,
        consequence: Vec<Literal>,
    ) -> Dependency {
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "x");
        Dependency::new(name, p, premise, consequence)
    }

    fn m0() -> [NodeId; 1] {
        [NodeId::new(0)]
    }

    #[test]
    fn empty_premise_enforces_immediately() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let sigma = DepSet::from_vec(vec![unary_gfd(
            &mut vocab,
            "g",
            vec![],
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
        )]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), a), ValueId::of(1)));
        assert_eq!(
            e.delta,
            vec![EqOp::Bind((NodeId::new(0), a), ValueId::of(1i64))]
        );
    }

    #[test]
    fn conflicting_consequences_error() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 0i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        let err = e.process_match(&sigma, GfdId::new(1), &m0()).unwrap_err();
        assert_eq!(err.gfd, Some(GfdId::new(1)));
    }

    #[test]
    fn pending_match_rechecks_on_instantiation() {
        // Example 4's mechanism in miniature:
        //   g0: a = 1 → b = 1   (pending at first)
        //   g1: ∅ → a = 1        (instantiates a, waking g0's match)
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        assert_eq!(e.pending_count(), 1);
        assert!(!e.eq.deduces_const((NodeId::new(0), b), ValueId::of(1)));
        e.process_match(&sigma, GfdId::new(1), &m0()).unwrap();
        // The cascade must have fired g0.
        assert_eq!(e.pending_count(), 0);
        assert!(e.eq.deduces_const((NodeId::new(0), b), ValueId::of(1)));
        assert_eq!(e.stats.rechecks, 1);
    }

    #[test]
    fn cascade_chains_through_multiple_pendings() {
        // g0: a=1 → b=1 ; g1: b=1 → c=1 ; g2: ∅ → a=1. Processing order
        // g0, g1, g2 must still derive c=1 through two cascaded rechecks.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![Literal::eq_const(x, b, 1i64)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g2",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        e.process_match(&sigma, GfdId::new(1), &m0()).unwrap();
        assert_eq!(e.pending_count(), 2);
        e.process_match(&sigma, GfdId::new(2), &m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), c), ValueId::of(1)));
        assert_eq!(e.pending_count(), 0);
    }

    #[test]
    fn rechecks_leave_pending_matches_intact() {
        // g0: a=1 ∧ b=1 → c=1, pending at n nodes. Binding a=1 rechecks
        // each entry once and leaves it pending on b — with its match
        // back in place; binding b=1 rechecks it again and fires it.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_const(x, a, 1i64), Literal::eq_const(x, b, 1i64)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g2",
                vec![],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
        ]);
        let n = 5;
        let mut e = EnforceEngine::new();
        for rule in [0, 1] {
            for i in 0..n {
                e.process_match(&sigma, GfdId::new(rule), &[NodeId::new(i)])
                    .unwrap();
            }
        }
        assert_eq!(e.stats.rechecks, n as u64);
        let pending: Vec<(GfdId, Vec<NodeId>)> =
            e.unresolved().map(|(g, m)| (g, m.to_vec())).collect();
        let expect: Vec<(GfdId, Vec<NodeId>)> = (0..n)
            .map(|i| (GfdId::new(0), vec![NodeId::new(i)]))
            .collect();
        assert_eq!(pending, expect);
        for i in 0..n {
            e.process_match(&sigma, GfdId::new(2), &[NodeId::new(i)])
                .unwrap();
            assert!(e.eq.deduces_const((NodeId::new(i), c), ValueId::of(1)));
        }
        assert_eq!(e.stats.rechecks, 2 * n as u64);
        assert_eq!(e.pending_count(), 0);
    }

    #[test]
    fn falsified_premise_never_fires() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![],
                vec![Literal::eq_const(x, a, 2i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        e.process_match(&sigma, GfdId::new(1), &m0()).unwrap();
        // a=2 contradicts the premise a=1: no pending entry, no b.
        assert_eq!(e.pending_count(), 0);
        assert!(!e.eq.has_class((NodeId::new(0), b)));
    }

    #[test]
    fn variable_literal_premise_satisfied_by_merge() {
        // g0: x.a = x.b → x.c = 1 ; g1: ∅ → x.a = x.b.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_attr(x, a, x, b)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary_gfd(&mut vocab, "g1", vec![], vec![Literal::eq_attr(x, a, x, b)]),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        assert_eq!(e.pending_count(), 1);
        e.process_match(&sigma, GfdId::new(1), &m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), c), ValueId::of(1)));
    }

    #[test]
    fn variable_literal_premise_satisfied_by_equal_constants() {
        // g0: x.a = x.b → x.c = 1 ; g1: ∅ → x.a = 5 ; g2: ∅ → x.b = 5.
        // a and b end up in different classes but with equal constants: the
        // premise holds in every population and must fire.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_attr(x, a, x, b)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(x, a, 5i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g2",
                vec![],
                vec![Literal::eq_const(x, b, 5i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        e.process_match(&sigma, GfdId::new(1), &m0()).unwrap();
        e.process_match(&sigma, GfdId::new(2), &m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), c), ValueId::of(1)));
    }

    #[test]
    fn remote_ops_trigger_local_cascades() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![unary_gfd(
            &mut vocab,
            "g0",
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, b, 1i64)],
        )]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        assert_eq!(e.pending_count(), 1);
        assert!(e.delta.is_empty());
        // A "remote" worker bound a=1.
        e.apply_remote_ops(
            &sigma,
            &[EqOp::Bind((NodeId::new(0), a), ValueId::of(1i64))],
        )
        .unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), b), ValueId::of(1)));
        // The local consequence (b=1) is kept for the log; the remote op
        // itself is not re-recorded.
        assert_eq!(
            e.delta,
            vec![EqOp::Bind((NodeId::new(0), b), ValueId::of(1i64))]
        );
    }

    #[test]
    fn unresolved_lists_the_pending_matches() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = DepSet::from_vec(vec![unary_gfd(
            &mut vocab,
            "g0",
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, b, 1i64)],
        )]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        assert!(e.delta.is_empty());
        let pending: Vec<_> = e.unresolved().collect();
        assert_eq!(pending, vec![(GfdId::new(0), &m0()[..])]);
    }
}
