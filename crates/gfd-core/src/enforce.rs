//! The enforcement engine: the `Expand`/`CheckAttr` machinery of §IV-C.
//!
//! Given matches of GFD patterns in a canonical graph, the engine
//!
//! 1. evaluates the premise `X` against the current equivalence relation
//!    (satisfied / permanently falsified / pending);
//! 2. enforces the consequence `Y` with the two expansion rules (constant
//!    binding, attribute merging), keeping the resulting [`EqOp`]s until
//!    the driver appends them to its `ΔEq` log;
//! 3. keeps the paper's *inverted index*: a match whose premise is pending
//!    watches one attribute it waits for — the key [`eval_premise`] names
//!    for its first unsatisfied literal — and is rechecked (cascaded) when
//!    that attribute's class is instantiated or merged; a recheck that
//!    finds it still pending moves the watch to the new first such key
//!    (the SAT solvers' watched literal).
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
    /// Some literal waits on uninstantiated attributes; the match must be
    /// rechecked when the key named here changes — the first unsatisfied
    /// literal's (see [`eval_premise`]).
    Pending(AttrKey),
}

/// Evaluate a rule's premise literals at `m` against `eq`, which it only
/// reads. An unsatisfied literal names one key: its own for `x.A = c` and
/// for a reflexive `x.A = x.A`, and the unbound side of `x.A = y.B` (`x.A`
/// when both are unbound). That literal cannot hold before the named key's
/// class is bound or merged, which wakes its watchers; a bound side never
/// changes again, so it must not be the one named.
pub fn eval_premise(eq: &EqRel, premise: &[Literal], m: &[NodeId]) -> PremiseStatus {
    let mut first = None;
    for lit in premise {
        let k1: AttrKey = (m[lit.var.index()], lit.attr);
        let waits_on = match &lit.rhs {
            Operand::Const(c) => match eq.const_of(k1) {
                Some(v) if v == *c => continue,
                Some(_) => return PremiseStatus::Falsified,
                None => k1,
            },
            Operand::Attr(var2, attr2) => {
                let k2: AttrKey = (m[var2.index()], *attr2);
                if k1 == k2 {
                    // Reflexive literal `x.A = x.A`: holds exactly when
                    // the attribute is forced to exist. A latent class
                    // (created only by watcher registration) does not
                    // count — the population may omit it.
                    if eq.is_materialized(k1) {
                        continue;
                    }
                    k1
                } else if eq.same_class(k1, k2) {
                    continue;
                } else {
                    match (eq.const_of(k1), eq.const_of(k2)) {
                        (Some(a), Some(b)) if a == b => continue,
                        (Some(_), Some(_)) => return PremiseStatus::Falsified,
                        (Some(_), None) => k2,
                        (None, _) => k1,
                    }
                }
            }
        };
        first.get_or_insert(waits_on);
    }
    first.map_or(PremiseStatus::Satisfied, PremiseStatus::Pending)
}

/// A match whose premise was pending when first seen. Its nodes are
/// `EnforceEngine::matches[offset..offset + arity]`. It has exactly one
/// watcher until it is resolved, and none after.
#[derive(Clone, Copy, Debug)]
struct PendingEntry {
    rule: GfdId,
    offset: u32,
    arity: u32,
    resolved: bool,
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
        match eval_premise(&self.eq, &gfd.premise, m) {
            PremiseStatus::Falsified => Ok(()),
            PremiseStatus::Satisfied => {
                enforce_consequence(&mut self.eq, &mut self.delta, gfd, id, m)?;
                self.cascade(sigma)
            }
            PremiseStatus::Pending(key) => {
                self.register_pending(id, m, key);
                Ok(())
            }
        }
    }

    /// Copy `m` into the arena and watch `key`.
    fn register_pending(&mut self, rule: GfdId, m: &[NodeId], key: AttrKey) {
        self.stats.pending_registered += 1;
        let id = self.pending.len() as u32;
        let offset = u32::try_from(self.matches.len()).expect("pending arena overflow");
        self.matches.extend_from_slice(m);
        self.pending.push(PendingEntry {
            rule,
            offset,
            arity: m.len() as u32,
            resolved: false,
        });
        self.eq.add_watcher(key, id);
    }

    /// Recheck woken pending matches until the wake queue drains (the
    /// fixpoint cascade driven by the inverted index). A match is read in
    /// place: enforcement writes the relation, the log and the queue,
    /// never the pending arena. A woken watcher was its entry's only one,
    /// so the entry is unresolved, and one that stays pending is watched
    /// again on the key its premise now waits on.
    pub fn cascade(&mut self, sigma: &DepSet) -> Result<(), Conflict> {
        while let Some(id) = self.eq.pop_woken() {
            let entry = self.pending[id as usize];
            debug_assert!(!entry.resolved, "a resolved match has no watcher");
            self.stats.rechecks += 1;
            let gfd = &sigma[entry.rule];
            let m = entry.m(&self.matches);
            match eval_premise(&self.eq, &gfd.premise, m) {
                PremiseStatus::Falsified => self.pending[id as usize].resolved = true,
                PremiseStatus::Satisfied => {
                    self.pending[id as usize].resolved = true;
                    enforce_consequence(&mut self.eq, &mut self.delta, gfd, entry.rule, m)?;
                }
                PremiseStatus::Pending(key) => self.eq.add_watcher(key, id),
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
    use crate::eq::tests::relation;
    use crate::literal::Literal;
    use gfd_graph::{AttrId, NodeId, Pattern, ValueId, VarId, Vocab};
    use proptest::prelude::*;

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
    fn a_pending_match_watches_one_key() {
        // g0: x.a = 1 ∧ x.b = 2 ∧ x.c = x.d → x.e = 1 waits on three
        // literals; g1: ∅ → x.a = 1 satisfies the first.
        let mut vocab = Vocab::new();
        let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| vocab.attr(n));
        let x = VarId::new(0);
        let premise = vec![
            Literal::eq_const(x, a, 1i64),
            Literal::eq_const(x, b, 2i64),
            Literal::eq_attr(x, c, x, d),
        ];
        let sigma = DepSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                premise,
                vec![Literal::eq_const(x, e, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
        ]);
        let mut eng = EnforceEngine::new();
        eng.process_match(&sigma, GfdId::new(0), &m0()).unwrap();
        assert_eq!((eng.eq.key_count(), eng.eq.watcher_count()), (1, 1));
        assert!(eng.eq.has_class((NodeId::new(0), a)));
        // The recheck moves the one watcher to the next literal's key.
        eng.process_match(&sigma, GfdId::new(1), &m0()).unwrap();
        assert_eq!(eng.stats.rechecks, 1);
        assert_eq!((eng.eq.key_count(), eng.eq.watcher_count()), (2, 1));
        assert!(eng.eq.has_class((NodeId::new(0), b)));
        assert_eq!(eng.pending_count(), 1);
    }

    /// `g0: x.a = y.b → x.c = 1` over a two-node pattern, with the
    /// one-node seeds `g1: ∅ → x.a = 5` and `g2: ∅ → x.b = 5`, and
    /// `g3: ∅ → x.a = y.b` over the same pair.
    fn attr_pair_sigma() -> DepSet {
        let mut vocab = Vocab::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| vocab.attr(n));
        let (x, y) = (VarId::new(0), VarId::new(1));
        let mut pair = Pattern::new();
        pair.add_node(vocab.label("t"), "x");
        pair.add_node(vocab.label("t"), "y");
        DepSet::from_vec(vec![
            Dependency::new(
                "g0",
                pair.clone(),
                vec![Literal::eq_attr(x, a, y, b)],
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
            Dependency::new("g3", pair, vec![], vec![Literal::eq_attr(x, a, y, b)]),
        ])
    }

    /// Run `steps` — `(rule, match)` pairs — through a fresh engine and
    /// report whether `n0.c = 1` was deduced.
    fn fires(sigma: &DepSet, steps: &[(usize, &[usize])]) -> bool {
        let mut e = EnforceEngine::new();
        for &(rule, m) in steps {
            let m: Vec<NodeId> = m.iter().map(|&n| NodeId::new(n)).collect();
            e.process_match(sigma, GfdId::new(rule), &m).unwrap();
        }
        let c = sigma[GfdId::new(0)].consequence.literals().unwrap()[0].attr;
        e.eq.deduces_const((NodeId::new(0), c), ValueId::of(1i64))
    }

    #[test]
    fn attr_premise_fires_when_its_left_side_was_bound_first() {
        // n0.a = 5 before the match parks; n1.b = 5 after.
        let sigma = attr_pair_sigma();
        assert!(!fires(&sigma, &[(1, &[0]), (0, &[0, 1])]));
        assert!(fires(&sigma, &[(1, &[0]), (0, &[0, 1]), (2, &[1])]));
    }

    #[test]
    fn attr_premise_fires_when_its_right_side_was_bound_first() {
        // n1.b = 5 before the match parks; n0.a = 5 after.
        let sigma = attr_pair_sigma();
        assert!(!fires(&sigma, &[(2, &[1]), (0, &[0, 1])]));
        assert!(fires(&sigma, &[(2, &[1]), (0, &[0, 1]), (1, &[0])]));
    }

    #[test]
    fn attr_premise_fires_when_bound_side_by_side_after_parking() {
        // Both sides unbound when the match parks; the first bind leaves
        // it pending on the other side, the second fires it — in either
        // order.
        let sigma = attr_pair_sigma();
        assert!(fires(&sigma, &[(0, &[0, 1]), (1, &[0]), (2, &[1])]));
        assert!(fires(&sigma, &[(0, &[0, 1]), (2, &[1]), (1, &[0])]));
    }

    #[test]
    fn attr_premise_fires_when_its_classes_merge() {
        let sigma = attr_pair_sigma();
        assert!(fires(&sigma, &[(0, &[0, 1]), (3, &[0, 1])]));
        // Bound on one side first, then merged: the merge still wakes it.
        assert!(fires(&sigma, &[(1, &[0]), (0, &[0, 1]), (3, &[0, 1])]));
        assert!(fires(&sigma, &[(2, &[1]), (0, &[0, 1]), (3, &[0, 1])]));
    }

    /// A premise or consequence literal over variables `0..vars` and
    /// attributes `a0..a2`.
    #[derive(Clone, Debug)]
    enum Lit {
        Const(usize, usize, i64),
        Attr((usize, usize), (usize, usize)),
        Reflexive(usize, usize),
    }

    fn arb_lit(vars: usize) -> impl Strategy<Value = Lit> {
        let side = move || (0..vars, 0..3usize);
        prop_oneof![
            (side(), 0..2i64).prop_map(|((v, a), c)| Lit::Const(v, a, c)),
            (side(), side()).prop_map(|(l, r)| Lit::Attr(l, r)),
            side().prop_map(|(v, a)| Lit::Reflexive(v, a)),
        ]
    }

    /// One rule over `vars` variables: 1–3 premise literals, 1–2
    /// consequence literals.
    fn arb_rule() -> impl Strategy<Value = (usize, Vec<Lit>, Vec<Lit>)> {
        (2..4usize).prop_flat_map(|vars| {
            let lits = move |n| proptest::collection::vec(arb_lit(vars), n);
            (Just(vars), lits(1..4), lits(1..3))
        })
    }

    /// A step of a run: a match of a rule (index taken modulo Σ), or a
    /// remote bind or merge, over nodes `0..4` and attributes `a0..a2`.
    #[derive(Clone, Debug)]
    enum Step {
        Match(usize, [usize; 3]),
        Bind((usize, usize), i64),
        Merge((usize, usize), (usize, usize)),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let key = || (0..4usize, 0..3usize);
        let matched = || {
            (0..8usize, (0..4usize, 0..4usize, 0..4usize))
                .prop_map(|(r, (m0, m1, m2))| Step::Match(r, [m0, m1, m2]))
        };
        prop_oneof![
            matched(),
            matched(),
            (key(), 0..2i64).prop_map(|(k, v)| Step::Bind(k, v)),
            (key(), key()).prop_map(|(k1, k2)| Step::Merge(k1, k2)),
        ]
    }

    /// Does `lit` hold at `m` — read straight off the relation's
    /// deductions, not through [`eval_premise`]?
    fn holds(eq: &EqRel, lit: &Literal, m: &[NodeId]) -> bool {
        let k1 = (m[lit.var.index()], lit.attr);
        match lit.rhs {
            Operand::Const(c) => eq.deduces_const(k1, c),
            Operand::Attr(v2, a2) => eq.deduces_eq(k1, (m[v2.index()], a2)),
        }
    }

    /// The naive fixpoint, sharing no code with the pending index: every
    /// remote op, then pass after pass over every match, enforcing each
    /// whose premise holds, until a pass changes nothing.
    fn naive_fixpoint(
        sigma: &DepSet,
        matches: &[(GfdId, Vec<NodeId>)],
        remote: &[EqOp],
    ) -> Result<EqRel, Conflict> {
        let mut eq = EqRel::new();
        for op in remote {
            eq.apply_op(op)?;
        }
        loop {
            let mut changed = false;
            for (rule, m) in matches {
                let gfd = &sigma[*rule];
                if gfd.premise.iter().all(|lit| holds(&eq, lit, m)) {
                    for lit in gfd.consequence.literals().unwrap() {
                        let k1 = (m[lit.var.index()], lit.attr);
                        let op = match lit.rhs {
                            Operand::Const(c) => EqOp::Bind(k1, c),
                            Operand::Attr(v2, a2) => EqOp::Merge(k1, (m[v2.index()], a2)),
                        };
                        changed |= eq.apply_op(&op)?;
                    }
                }
            }
            if !changed {
                return Ok(eq);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random rules over 2–3 variables (constant, attribute and
        /// reflexive literals), their matches in random order over four
        /// nodes, some ops arriving through `apply_remote_ops`: the
        /// engine's relation has the naive fixpoint's materialized
        /// classes, and it conflicts exactly when the fixpoint does.
        #[test]
        fn engine_reaches_the_naive_fixpoint(
            rules in proptest::collection::vec(arb_rule(), 1..5),
            steps in proptest::collection::vec(arb_step(), 0..24),
        ) {
            let mut vocab = Vocab::new();
            let attrs: Vec<AttrId> = (0..3).map(|i| vocab.attr(&format!("a{i}"))).collect();
            let literal = |lit: &Lit| match *lit {
                Lit::Const(v, a, c) => Literal::eq_const(VarId::new(v), attrs[a], c),
                Lit::Attr((v1, a1), (v2, a2)) => {
                    Literal::eq_attr(VarId::new(v1), attrs[a1], VarId::new(v2), attrs[a2])
                }
                Lit::Reflexive(v, a) => {
                    Literal::eq_attr(VarId::new(v), attrs[a], VarId::new(v), attrs[a])
                }
            };
            let sigma = DepSet::from_vec(
                (rules.iter().enumerate())
                    .map(|(i, (vars, premise, consequence))| {
                        let mut p = Pattern::new();
                        for v in 0..*vars {
                            p.add_node(vocab.label("t"), format!("v{v}"));
                        }
                        let premise = premise.iter().map(literal).collect();
                        let consequence: Vec<Literal> = consequence.iter().map(literal).collect();
                        Dependency::new(format!("g{i}"), p, premise, consequence)
                    })
                    .collect(),
            );
            let key = |(n, a): (usize, usize)| (NodeId::new(n), attrs[a]);
            let (mut matches, mut remote) = (Vec::new(), Vec::new());
            let mut engine = EnforceEngine::new();
            let run = steps.iter().try_for_each(|step| {
                let op = match *step {
                    Step::Match(r, m) => {
                        let rule = GfdId::new(r % rules.len());
                        let m: Vec<NodeId> =
                            m[..rules[rule.index()].0].iter().map(|&n| NodeId::new(n)).collect();
                        let done = engine.process_match(&sigma, rule, &m);
                        matches.push((rule, m));
                        return done;
                    }
                    Step::Bind(k, v) => EqOp::Bind(key(k), ValueId::of(v)),
                    Step::Merge(k1, k2) => EqOp::Merge(key(k1), key(k2)),
                };
                remote.push(op);
                engine.apply_remote_ops(&sigma, &[op])
            });
            match (run, naive_fixpoint(&sigma, &matches, &remote)) {
                (Ok(()), Ok(mut expect)) => {
                    prop_assert_eq!(relation(&mut engine.eq), relation(&mut expect));
                }
                (Err(_), Err(_)) => {}
                (run, expect) => prop_assert!(
                    false,
                    "engine conflict {:?}, naive conflict {:?}",
                    run.err(),
                    expect.err()
                ),
            }
        }
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
