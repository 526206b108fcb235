//! The equivalence relation `Eq` over node attributes (§IV-C).
//!
//! `Eq` represents the attribute assignment `F_A` of a canonical-graph
//! population symbolically: each class `[x.A]Eq` groups attribute keys that
//! are forced equal by enforced GFDs, optionally together with a constant.
//! Binding two distinct constants to one class is the *conflict* that
//! decides satisfiability/implication.
//!
//! The structure is a union-find with:
//!
//! * per-class constant bindings (merging classes with distinct constants
//!   raises [`Conflict`]);
//! * per-class *watchers* — registrations of pending matches (the paper's
//!   inverted index) that must be rechecked when the class gains a constant
//!   or is merged — and the queue of woken ones, as linked lists threaded
//!   through one arena;
//! * monotone *ops* ([`EqOp`]) replayable on another copy, in any order —
//!   what the parallel workers share as `ΔEq`.

use crate::error::{AttrKey, Conflict};
use gfd_graph::ValueId;
use rustc_hash::FxHashMap;

/// A monotone update to an [`EqRel`], replayable on any other copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EqOp {
    /// Bind constant `value` to the class of `key`.
    Bind(AttrKey, ValueId),
    /// Merge the classes of the two keys.
    Merge(AttrKey, AttrKey),
}

/// A watcher registration: pending-entry id plus the registration epoch
/// (stale duplicates are skipped on wake).
pub type Watcher = (u32, u32);

/// A list of watchers in the watcher arena, oldest first, as the indices
/// of its first and last node (`0`, the arena's sentinel, for none).
#[derive(Clone, Copy, Debug, Default)]
struct List {
    head: u32,
    tail: u32,
}

/// The equivalence relation over attribute keys.
#[derive(Clone, Debug, Default)]
pub struct EqRel {
    slot_of: FxHashMap<AttrKey, u32>,
    keys: Vec<AttrKey>,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Valid at roots only.
    constant: Vec<Option<ValueId>>,
    /// Valid at roots only: the class's watcher list.
    watchers: Vec<List>,
    /// Watchers woken by binds and merges, not yet popped: registration
    /// order, and on a merge the root's list before the child's.
    woken: List,
    /// The nodes of every list, `(watcher, next)`, behind a sentinel node
    /// 0. A node popped off `woken` goes on the free list headed by `free`.
    arena: Vec<(Watcher, u32)>,
    free: u32,
    /// Per *key* (not per class): was this attribute forced to exist by an
    /// enforcement (bind/merge endpoint)? Keys created only to register
    /// premise watchers stay *latent*: the population is free not to carry
    /// them, so they satisfy no existence requirement and are skipped by
    /// model extraction. (Latent keys are always singleton classes with no
    /// constant — any bind or merge on them materializes them.)
    materialized: Vec<bool>,
    version: u64,
}

/// Append `tail` to `list` in `arena`.
fn splice(arena: &mut [(Watcher, u32)], list: &mut List, tail: List) {
    if list.head == 0 {
        *list = tail;
    } else if tail.head != 0 {
        arena[list.tail as usize].1 = tail.head;
        list.tail = tail.tail;
    }
}

impl EqRel {
    /// An empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attribute keys tracked.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// True iff no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// A counter bumped on every state change; cheap dirty-checking for the
    /// `Y ⊆ EqH` test.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Ensure `[key]` exists; returns `(slot, created)`.
    pub fn ensure(&mut self, key: AttrKey) -> (u32, bool) {
        if let Some(&s) = self.slot_of.get(&key) {
            return (s, false);
        }
        let s = self.keys.len() as u32;
        self.slot_of.insert(key, s);
        self.keys.push(key);
        self.parent.push(s);
        self.rank.push(0);
        self.constant.push(None);
        self.watchers.push(List::default());
        self.materialized.push(false);
        self.version += 1;
        (s, true)
    }

    /// Mark `key`'s slot as materialized (attribute forced to exist).
    fn materialize(&mut self, slot: u32) {
        if !self.materialized[slot as usize] {
            self.materialized[slot as usize] = true;
            self.version += 1;
        }
    }

    /// Was this attribute key forced to exist by an enforcement?
    pub fn is_materialized(&self, key: AttrKey) -> bool {
        self.slot_of
            .get(&key)
            .is_some_and(|&s| self.materialized[s as usize])
    }

    fn find(&mut self, mut s: u32) -> u32 {
        // Path halving. Queries walk with `root` instead, which writes nothing.
        while self.parent[s as usize] != s {
            let gp = self.parent[self.parent[s as usize] as usize];
            self.parent[s as usize] = gp;
            s = gp;
        }
        s
    }

    /// The root slot of `s`, read without writing: every query's walk.
    fn root(&self, mut s: u32) -> u32 {
        while self.parent[s as usize] != s {
            s = self.parent[s as usize];
        }
        s
    }

    /// The root slot of `key`, if the class exists.
    fn root_of(&self, key: AttrKey) -> Option<u32> {
        Some(self.root(*self.slot_of.get(&key)?))
    }

    /// Does the class `[key]` exist?
    pub fn has_class(&self, key: AttrKey) -> bool {
        self.slot_of.contains_key(&key)
    }

    /// The constant bound to `[key]`, if the class exists and is bound.
    pub fn const_of(&self, key: AttrKey) -> Option<ValueId> {
        self.constant[self.root_of(key)? as usize]
    }

    /// The canonical class id of `key` (creating a latent singleton when
    /// the key is new): two keys report the same id iff they are in the
    /// same class. The id is an internal slot index, stable only until
    /// the next merge — meant for transient grouping (the chase's
    /// conflict partition keys on it), never for persistence.
    pub fn class_id(&mut self, key: AttrKey) -> u32 {
        let (s, _) = self.ensure(key);
        self.find(s)
    }

    /// Are the two keys in the same class? (`false` if either is missing.)
    pub fn same_class(&self, k1: AttrKey, k2: AttrKey) -> bool {
        match (self.root_of(k1), self.root_of(k2)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Can `key = value` be deduced? (class exists and is bound to exactly
    /// `value`)
    pub fn deduces_const(&self, key: AttrKey, value: ValueId) -> bool {
        self.const_of(key) == Some(value)
    }

    /// Can `k1 = k2` be deduced? Same class, or both bound to equal
    /// constants (equal values make the attributes equal in every
    /// population). The reflexive case `k = k` holds exactly when the
    /// attribute was forced to exist (latent classes satisfy nothing).
    pub fn deduces_eq(&self, k1: AttrKey, k2: AttrKey) -> bool {
        if k1 == k2 {
            return self.is_materialized(k1);
        }
        if self.same_class(k1, k2) {
            return true;
        }
        match (self.const_of(k1), self.const_of(k2)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Queue the watchers of the class rooted at `root` on `woken`.
    fn wake(&mut self, root: u32) {
        let list = std::mem::take(&mut self.watchers[root as usize]);
        splice(&mut self.arena, &mut self.woken, list);
    }

    /// Bind `value` to the class of `key` (Rule 1 of §IV-C). Creates the
    /// class if needed; conflicts if a distinct constant is present.
    /// Returns whether the relation changed; a newly bound class's
    /// watchers are queued for [`EqRel::pop_woken`].
    pub fn bind(&mut self, key: AttrKey, value: ValueId) -> Result<bool, Conflict> {
        let (slot, created) = self.ensure(key);
        self.materialize(slot);
        let root = self.find(slot);
        match &self.constant[root as usize] {
            None => {
                self.constant[root as usize] = Some(value);
                self.version += 1;
                self.wake(root);
                Ok(true)
            }
            Some(existing) if *existing == value => Ok(created),
            Some(existing) => Err(Conflict {
                key,
                existing: *existing,
                incoming: value,
                gfd: None,
            }),
        }
    }

    /// Merge the classes of `k1` and `k2` (Rule 2 of §IV-C). Creates
    /// missing classes; conflicts if the classes carry distinct constants.
    /// Returns whether the relation changed, queueing watchers as `bind`.
    pub fn merge(&mut self, k1: AttrKey, k2: AttrKey) -> Result<bool, Conflict> {
        let (s1, c1) = self.ensure(k1);
        let (s2, c2) = self.ensure(k2);
        // A merge forces both endpoint attributes to exist; a latent →
        // materialized transition can satisfy reflexive premises, so it
        // wakes watchers and must be replayed (recorded) like any change.
        let lat1 = !self.materialized[s1 as usize];
        let lat2 = !self.materialized[s2 as usize];
        self.materialize(s1);
        self.materialize(s2);
        let r1 = self.find(s1);
        let r2 = self.find(s2);
        if r1 == r2 {
            if lat1 || lat2 {
                self.wake(r1);
            }
            return Ok(c1 || c2 || lat1 || lat2);
        }
        let merged_const = match (self.constant[r1 as usize], self.constant[r2 as usize]) {
            (Some(a), Some(b)) if a != b => {
                return Err(Conflict {
                    key: k1,
                    existing: a,
                    incoming: b,
                    gfd: None,
                })
            }
            (Some(a), _) => Some(a),
            (_, Some(b)) => Some(b),
            (None, None) => None,
        };
        // Union by rank.
        let (root, child) = if self.rank[r1 as usize] >= self.rank[r2 as usize] {
            (r1, r2)
        } else {
            (r2, r1)
        };
        if self.rank[root as usize] == self.rank[child as usize] {
            self.rank[root as usize] += 1;
        }
        self.parent[child as usize] = root;
        self.constant[root as usize] = merged_const;
        self.constant[child as usize] = None;
        self.version += 1;
        // Wake every watcher of the union: the merge may satisfy `x.A=y.B`
        // premises or propagate a constant.
        self.wake(root);
        self.wake(child);
        Ok(true)
    }

    /// Register a watcher on the class of `key` (creating the class if
    /// needed — attributes mentioned by premises exist without values,
    /// exactly the paper's "not yet instantiated" case).
    pub fn add_watcher(&mut self, key: AttrKey, watcher: Watcher) {
        let (slot, _) = self.ensure(key);
        let root = self.find(slot);
        let node = match self.free {
            0 => {
                if self.arena.is_empty() {
                    self.arena.push(((0, 0), 0));
                }
                self.arena.push((watcher, 0));
                u32::try_from(self.arena.len() - 1).expect("watcher arena overflow")
            }
            node => {
                self.free = std::mem::replace(&mut self.arena[node as usize], (watcher, 0)).1;
                node
            }
        };
        let one = List {
            head: node,
            tail: node,
        };
        splice(&mut self.arena, &mut self.watchers[root as usize], one);
    }

    /// Pop the oldest woken watcher, its arena node freed for reuse.
    pub fn pop_woken(&mut self) -> Option<Watcher> {
        let node = self.woken.head;
        if node == 0 {
            return None;
        }
        let (watcher, next) =
            std::mem::replace(&mut self.arena[node as usize], ((0, 0), self.free));
        self.woken.head = next;
        self.free = node;
        Some(watcher)
    }

    /// Apply a (possibly remote) op. Idempotent; returns whether the
    /// relation changed.
    pub fn apply_op(&mut self, op: &EqOp) -> Result<bool, Conflict> {
        match op {
            EqOp::Bind(k, v) => self.bind(*k, *v),
            EqOp::Merge(k1, k2) => self.merge(*k1, *k2),
        }
    }

    /// Each materialized key with its class's root slot and constant, in
    /// slot order — what model extraction populates: latent keys impose no
    /// existence requirement (a latent key is always a singleton, so every
    /// class with a materialized key is wholly materialized).
    pub(crate) fn materialized_keys(
        &mut self,
    ) -> impl Iterator<Item = (AttrKey, u32, Option<ValueId>)> + '_ {
        (0..self.keys.len()).filter_map(move |i| {
            if !self.materialized[i] {
                return None;
            }
            let r = self.find(i as u32);
            Some((self.keys[i], r, self.constant[r as usize]))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{populate_model, FRESH_PREFIX};
    use gfd_graph::{AttrId, Graph, LabelId, NodeId};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn k(n: usize, a: usize) -> AttrKey {
        (NodeId::new(n), AttrId::new(a))
    }

    /// Pop every woken watcher.
    fn drain(eq: &mut EqRel) -> Vec<Watcher> {
        std::iter::from_fn(|| eq.pop_woken()).collect()
    }

    /// The relation's classes as `(bound constant, member keys)`, keeping
    /// only materialized keys: members in slot order, classes in the order
    /// of their least member key. The model read-out's oracle, and what
    /// the convergence tests compare relations by.
    pub(crate) fn materialized_classes(eq: &mut EqRel) -> Vec<(Option<ValueId>, Vec<AttrKey>)> {
        let mut class_of: FxHashMap<u32, usize> = FxHashMap::default();
        let mut classes: Vec<(Option<ValueId>, Vec<AttrKey>)> = Vec::new();
        for (key, root, constant) in eq.materialized_keys() {
            let c = *class_of.entry(root).or_insert_with(|| {
                classes.push((constant, Vec::new()));
                classes.len() - 1
            });
            classes[c].1.push(key);
        }
        classes.sort_by_cached_key(|(_, members)| members.iter().min().copied());
        classes
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut eq = EqRel::new();
        let (s1, c1) = eq.ensure(k(0, 0));
        let (s2, c2) = eq.ensure(k(0, 0));
        assert_eq!(s1, s2);
        assert!(c1);
        assert!(!c2);
        assert_eq!(eq.key_count(), 1);
        assert!(eq.has_class(k(0, 0)));
        assert!(!eq.has_class(k(1, 0)));
    }

    #[test]
    fn bind_sets_and_detects_conflicts() {
        let mut eq = EqRel::new();
        assert!(eq.bind(k(0, 0), ValueId::of(1)).unwrap());
        assert_eq!(eq.const_of(k(0, 0)), Some(ValueId::of(1)));
        // Same value: no change, no conflict.
        assert!(!eq.bind(k(0, 0), ValueId::of(1)).unwrap());
        // Distinct value: conflict.
        let err = eq.bind(k(0, 0), ValueId::of(2)).unwrap_err();
        assert_eq!(err.existing, ValueId::of(1));
        assert_eq!(err.incoming, ValueId::of(2));
    }

    #[test]
    fn merge_unions_and_propagates_constants() {
        let mut eq = EqRel::new();
        eq.bind(k(0, 0), ValueId::of(7)).unwrap();
        eq.merge(k(0, 0), k(1, 1)).unwrap();
        assert!(eq.same_class(k(0, 0), k(1, 1)));
        assert_eq!(eq.const_of(k(1, 1)), Some(ValueId::of(7)));
        // Merging in a third key through the second.
        eq.merge(k(1, 1), k(2, 2)).unwrap();
        assert_eq!(eq.const_of(k(2, 2)), Some(ValueId::of(7)));
        // Transitivity of same_class.
        assert!(eq.same_class(k(0, 0), k(2, 2)));
    }

    #[test]
    fn merge_conflict_on_distinct_constants() {
        let mut eq = EqRel::new();
        eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        eq.bind(k(1, 0), ValueId::of(2)).unwrap();
        assert!(eq.merge(k(0, 0), k(1, 0)).is_err());
    }

    #[test]
    fn merge_same_class_is_noop() {
        let mut eq = EqRel::new();
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        assert!(!eq.merge(k(1, 0), k(0, 0)).unwrap());
    }

    #[test]
    fn deduction_via_equal_constants() {
        let mut eq = EqRel::new();
        eq.bind(k(0, 0), ValueId::of(5)).unwrap();
        eq.bind(k(1, 0), ValueId::of(5)).unwrap();
        assert!(!eq.same_class(k(0, 0), k(1, 0)));
        // Equal constants ⇒ the attributes are equal in every population.
        assert!(eq.deduces_eq(k(0, 0), k(1, 0)));
        assert!(eq.deduces_const(k(0, 0), ValueId::of(5)));
        assert!(!eq.deduces_const(k(0, 0), ValueId::of(6)));
        assert!(!eq.deduces_eq(k(0, 0), k(9, 9)));
    }

    #[test]
    fn watchers_wake_on_bind_and_merge() {
        let mut eq = EqRel::new();
        eq.add_watcher(k(0, 0), (10, 0));
        eq.add_watcher(k(1, 0), (11, 0));
        // Bind wakes the watcher of that class only.
        eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        assert_eq!(drain(&mut eq), vec![(10, 0)]);
        // Merge wakes the watchers of both classes (drained).
        eq.add_watcher(k(0, 0), (12, 0));
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        let mut woken = drain(&mut eq);
        woken.sort();
        assert_eq!(woken, vec![(11, 0), (12, 0)]);
        // Drained: binding again wakes nothing.
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        assert!(drain(&mut eq).is_empty());
    }

    #[test]
    fn watchers_follow_merges() {
        let mut eq = EqRel::new();
        eq.add_watcher(k(0, 0), (1, 0));
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        assert_eq!(drain(&mut eq), vec![(1, 0)]);
        // Watcher was woken by the merge; re-register and bind through the
        // *other* key of the class.
        eq.add_watcher(k(0, 0), (1, 1));
        eq.bind(k(1, 0), ValueId::of(3)).unwrap();
        assert_eq!(drain(&mut eq), vec![(1, 1)]);
    }

    #[test]
    fn op_replay_reproduces_state() {
        let mut a = EqRel::new();
        let ops = vec![
            EqOp::Bind(k(1, 1), ValueId::of(9)),
            EqOp::Merge(k(1, 1), k(2, 2)),
            EqOp::Merge(k(0, 0), k(3, 3)),
        ];
        for op in &ops {
            a.apply_op(op).unwrap();
        }
        // Replay on a fresh copy, in a different order (ops commute when
        // conflict-free).
        let mut b = EqRel::new();
        for op in ops.iter().rev() {
            b.apply_op(op).unwrap();
        }
        assert_eq!(b.const_of(k(2, 2)), Some(ValueId::of(9)));
        assert!(b.same_class(k(0, 0), k(3, 3)));
        assert_eq!(a.key_count(), b.key_count());
        // Re-applying is idempotent.
        for op in &ops {
            assert!(!b.apply_op(op).unwrap());
        }
    }

    #[test]
    fn classes_enumeration_is_deterministic() {
        let mut eq = EqRel::new();
        eq.bind(k(2, 0), ValueId::of(1)).unwrap();
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        // A watcher-only key stays latent and is not enumerated.
        eq.add_watcher(k(0, 1), (0, 0));
        let classes = materialized_classes(&mut eq);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], (None, vec![k(0, 0), k(1, 0)]));
        assert_eq!(classes[1], (Some(ValueId::of(1)), vec![k(2, 0)]));
    }

    #[test]
    fn version_bumps_on_change_only() {
        let mut eq = EqRel::new();
        let v0 = eq.version();
        eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        let v1 = eq.version();
        assert!(v1 > v0);
        eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        assert_eq!(eq.version(), v1);
    }

    #[test]
    fn long_union_chains_stay_correct() {
        let mut eq = EqRel::new();
        for i in 0..100 {
            eq.merge(k(i, 0), k(i + 1, 0)).unwrap();
        }
        assert!(eq.same_class(k(0, 0), k(100, 0)));
        eq.bind(k(50, 0), ValueId::of(42)).unwrap();
        assert_eq!(eq.const_of(k(0, 0)), Some(ValueId::of(42)));
        assert_eq!(eq.const_of(k(100, 0)), Some(ValueId::of(42)));
        let err = eq.bind(k(99, 0), ValueId::of(43)).unwrap_err();
        assert_eq!(err.existing, ValueId::of(42));
    }

    /// The read-out before [`materialized_classes`]: every key through a
    /// hash map of per-class `Vec`s, sorted (by least member key, as
    /// classes are numbered), then the latent keys retained away. Kept as
    /// the oracle.
    fn classes_then_retain(eq: &mut EqRel) -> Vec<(Option<ValueId>, Vec<AttrKey>)> {
        let mut by_root: FxHashMap<u32, Vec<AttrKey>> = FxHashMap::default();
        for i in 0..eq.keys.len() {
            let r = eq.find(i as u32);
            by_root.entry(r).or_default().push(eq.keys[i]);
        }
        let mut classes: Vec<(Option<ValueId>, Vec<AttrKey>)> = by_root
            .into_iter()
            .map(|(r, members)| (eq.constant[r as usize], members))
            .collect();
        classes.sort_by_key(|(_, members)| members.iter().min().copied());
        classes.retain_mut(|(_, members)| {
            members.retain(|&k| eq.is_materialized(k));
            !members.is_empty()
        });
        classes
    }

    /// One step of a random history over a small key universe.
    #[derive(Clone, Debug)]
    enum Step {
        Ensure(usize, usize),
        Watch(usize, usize),
        Bind(usize, usize, i64),
        Merge((usize, usize), (usize, usize)),
        /// Pop one watcher off the wake queue (recycling its arena node).
        Pop,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let key = || (0..6usize, 0..3usize);
        prop_oneof![
            key().prop_map(|(n, a)| Step::Ensure(n, a)),
            key().prop_map(|(n, a)| Step::Watch(n, a)),
            (key(), 0..3i64).prop_map(|((n, a), v)| Step::Bind(n, a, v)),
            (key(), key()).prop_map(|(k1, k2)| Step::Merge(k1, k2)),
            Just(Step::Pop),
        ]
    }

    /// The read-out as `(key, value)` pairs, sorted: the classes of
    /// [`classes_then_retain`] numbered the way extraction numbers them
    /// (fresh constants count up over the unbound classes in class order).
    fn numbered_oracle(eq: &mut EqRel) -> Vec<(AttrKey, ValueId)> {
        let mut fresh = 0;
        let mut out = Vec::new();
        for (constant, members) in classes_then_retain(eq) {
            let value = constant.unwrap_or_else(|| {
                fresh += 1;
                ValueId::of(format!("{FRESH_PREFIX}{fresh}"))
            });
            out.extend(members.into_iter().map(|key| (key, value)));
        }
        out.sort();
        out
    }

    /// The root of `key` through the path-halving [`EqRel::find`]: how every
    /// read walked before reads took `&self`. The read-path oracle.
    fn root_compressing(eq: &mut EqRel, key: AttrKey) -> Option<u32> {
        let s = *eq.slot_of.get(&key)?;
        Some(eq.find(s))
    }

    fn const_compressing(eq: &mut EqRel, key: AttrKey) -> Option<ValueId> {
        let r = root_compressing(eq, key)?;
        eq.constant[r as usize]
    }

    fn same_class_compressing(eq: &mut EqRel, k1: AttrKey, k2: AttrKey) -> bool {
        let r1 = root_compressing(eq, k1);
        r1.is_some() && r1 == root_compressing(eq, k2)
    }

    fn deduces_eq_compressing(eq: &mut EqRel, k1: AttrKey, k2: AttrKey) -> bool {
        if k1 == k2 {
            return eq.is_materialized(k1);
        }
        let consts = (const_compressing(eq, k1), const_compressing(eq, k2));
        same_class_compressing(eq, k1, k2) || matches!(consts, (Some(a), Some(b)) if a == b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// After every step of a random history, the `&self` reads answer
        /// what the compressing walk answers on a clone — for every key and
        /// every pair of keys of the universe, the clone compressing more
        /// with each read — and a sweep of reads leaves `parent` and
        /// `version` as it found them.
        #[test]
        fn read_path_answers_what_the_compressing_path_answers(
            steps in proptest::collection::vec(arb_step(), 0..40),
        ) {
            let keys: Vec<AttrKey> = (0..6).flat_map(|n| (0..3).map(move |a| k(n, a))).collect();
            let mut eq = EqRel::new();
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Ensure(n, a) => {
                        eq.ensure(k(n, a));
                    }
                    Step::Watch(n, a) => eq.add_watcher(k(n, a), (i as u32, 0)),
                    Step::Bind(n, a, v) => {
                        let _ = eq.bind(k(n, a), ValueId::of(v));
                    }
                    Step::Merge((n1, a1), (n2, a2)) => {
                        let _ = eq.merge(k(n1, a1), k(n2, a2));
                    }
                    Step::Pop => {}
                }
                let (parent, version) = (eq.parent.clone(), eq.version());
                let mut oracle = eq.clone();
                for &k1 in &keys {
                    prop_assert_eq!(eq.const_of(k1), const_compressing(&mut oracle, k1));
                    for &k2 in &keys {
                        let same = same_class_compressing(&mut oracle, k1, k2);
                        prop_assert_eq!(eq.same_class(k1, k2), same, "step {}", i);
                        let deduced = deduces_eq_compressing(&mut oracle, k1, k2);
                        prop_assert_eq!(eq.deduces_eq(k1, k2), deduced, "step {}", i);
                    }
                }
                prop_assert_eq!(&eq.parent, &parent, "step {}", i);
                prop_assert_eq!(eq.version(), version, "step {}", i);
            }
        }

        /// The model read-out assigns every materialized key the value the
        /// hash-map read-out numbers it, and nothing else — after every
        /// step of the history, conflicts included (a refused op may still
        /// have created or materialized keys). The classes oracle agrees
        /// with it too: same classes, member order and class order.
        #[test]
        fn flat_readout_equals_the_hash_map_readout(
            steps in proptest::collection::vec(arb_step(), 0..40),
        ) {
            let mut eq = EqRel::new();
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Ensure(n, a) => {
                        eq.ensure(k(n, a));
                    }
                    Step::Watch(n, a) => eq.add_watcher(k(n, a), (i as u32, 0)),
                    Step::Bind(n, a, v) => {
                        let _ = eq.bind(k(n, a), ValueId::of(v));
                    }
                    Step::Merge((n1, a1), (n2, a2)) => {
                        let _ = eq.merge(k(n1, a1), k(n2, a2));
                    }
                    Step::Pop => {}
                }
                let mut model = Graph::new();
                for _ in 0..6 {
                    model.add_node(LabelId::new(0));
                }
                populate_model(&mut model, &mut eq.clone());
                let got: Vec<(AttrKey, ValueId)> = (model.nodes())
                    .flat_map(|n| model.attrs(n).iter().map(move |&(a, v)| ((n, a), v)))
                    .collect();
                prop_assert_eq!(got, numbered_oracle(&mut eq.clone()), "after step {}", i);
                let expect = classes_then_retain(&mut eq.clone());
                prop_assert_eq!(materialized_classes(&mut eq), expect, "after step {}", i);
            }
        }

        /// The watcher arena wakes what a `Vec<Watcher>` per class wakes:
        /// registration order, and on a merge the root's list before the
        /// child's. `Pop` steps take from the wake queue in between (so
        /// freed nodes are reused); the pops, then a final drain, read
        /// exactly what a `VecDeque` fed from the reference lists reads.
        #[test]
        fn arena_wakes_what_per_class_vecs_wake(
            steps in proptest::collection::vec(arb_step(), 0..60),
        ) {
            let mut eq = EqRel::new();
            let mut lists: Vec<Vec<Watcher>> = Vec::new();
            let mut expect = VecDeque::new();
            for (i, step) in steps.iter().enumerate() {
                lists.resize(eq.key_count(), Vec::new());
                match *step {
                    Step::Ensure(n, a) => {
                        eq.ensure(k(n, a));
                    }
                    Step::Watch(n, a) => {
                        eq.add_watcher(k(n, a), (i as u32, 0));
                        lists.resize(eq.key_count(), Vec::new());
                        lists[eq.root_of(k(n, a)).unwrap() as usize].push((i as u32, 0));
                    }
                    Step::Bind(n, a, v) => {
                        let (root, was) = (eq.root_of(k(n, a)), eq.const_of(k(n, a)));
                        if eq.bind(k(n, a), ValueId::of(v)).is_ok() && was.is_none() {
                            if let Some(r) = root {
                                expect.extend(std::mem::take(&mut lists[r as usize]));
                            }
                        }
                    }
                    Step::Merge((n1, a1), (n2, a2)) => {
                        let (k1, k2) = (k(n1, a1), k(n2, a2));
                        let roots = [eq.root_of(k1), eq.root_of(k2)];
                        let latent = !eq.is_materialized(k1) || !eq.is_materialized(k2);
                        if eq.merge(k1, k2).is_ok() {
                            lists.resize(eq.key_count(), Vec::new());
                            let root = eq.root_of(k1).unwrap();
                            if roots[0].is_none() || roots[0] != roots[1] || latent {
                                expect.extend(std::mem::take(&mut lists[root as usize]));
                            }
                            if roots[0] != roots[1] {
                                for r in roots.into_iter().flatten().filter(|&r| r != root) {
                                    expect.extend(std::mem::take(&mut lists[r as usize]));
                                }
                            }
                        }
                    }
                    Step::Pop => {
                        prop_assert_eq!(eq.pop_woken(), expect.pop_front(), "step {}", i);
                    }
                }
            }
            prop_assert_eq!(drain(&mut eq), Vec::from(expect));
        }
    }
}
