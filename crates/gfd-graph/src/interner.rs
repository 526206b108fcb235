//! String interning for labels and attribute names.

use crate::ids::{AttrId, LabelId};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// A bidirectional string ↔ `u32` map.
#[derive(Clone, Default, Debug)]
pub struct Interner {
    to_id: FxHashMap<Arc<str>, u32>,
    to_str: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its id; repeated calls return the same id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.to_id.get(s) {
            return id;
        }
        let id = self.to_str.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.to_str.push(arc.clone());
        self.to_id.insert(arc, id);
        id
    }

    /// Look up an already-interned string.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.to_id.get(s).copied()
    }

    /// Resolve an id back to its string. Panics on a foreign id.
    pub fn resolve(&self, id: u32) -> &str {
        &self.to_str[id as usize]
    }

    /// [`Interner::resolve`] as the shared allocation itself, for callers
    /// that keep the string beyond the borrow (a clone is a refcount bump).
    pub fn resolve_arc(&self, id: u32) -> &Arc<str> {
        &self.to_str[id as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.to_str.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.to_str.is_empty()
    }

    /// Iterate `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.to_str
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }
}

/// The shared vocabulary of a reasoning session: node/edge labels and
/// attribute names.
///
/// Graphs, patterns and GFDs store only ids; a `Vocab` is needed to print
/// them or to parse text input. The wildcard label `"_"` is interned first so
/// that [`LabelId::WILDCARD`] is valid in every vocabulary.
#[derive(Clone, Debug)]
pub struct Vocab {
    labels: Interner,
    attrs: Interner,
}

impl Default for Vocab {
    fn default() -> Self {
        Self::new()
    }
}

impl Vocab {
    /// A fresh vocabulary with the wildcard label pre-interned.
    pub fn new() -> Self {
        let mut labels = Interner::new();
        let wildcard = labels.intern("_");
        debug_assert_eq!(wildcard, LabelId::WILDCARD.0);
        Vocab {
            labels,
            attrs: Interner::new(),
        }
    }

    /// Intern a node/edge label.
    pub fn label(&mut self, name: &str) -> LabelId {
        LabelId(self.labels.intern(name))
    }

    /// Intern an attribute name.
    pub fn attr(&mut self, name: &str) -> AttrId {
        AttrId(self.attrs.intern(name))
    }

    /// Look up an attribute without interning.
    pub fn find_attr(&self, name: &str) -> Option<AttrId> {
        self.attrs.get(name).map(AttrId)
    }

    /// Resolve a label id to its name.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.labels.resolve(id.0)
    }

    /// Resolve an attribute id to its name.
    pub fn attr_name(&self, id: AttrId) -> &str {
        self.attrs.resolve(id.0)
    }

    /// Number of distinct attribute names.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Iterate all labels in id order (starts with `"_"`).
    pub fn labels(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.labels.iter().map(|(i, s)| (LabelId(i), s))
    }

    /// Iterate all attribute names in id order.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.attrs.iter().map(|(i, s)| (AttrId(i), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("person");
        let b = i.intern("place");
        let a2 = i.intern("person");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "person");
        assert_eq!(i.resolve(b), "place");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn vocab_reserves_wildcard() {
        let mut v = Vocab::new();
        assert_eq!(v.label("_"), LabelId::WILDCARD);
        assert_eq!(v.label_name(LabelId::WILDCARD), "_");
        let person = v.label("person");
        assert!(!person.is_wildcard());
        assert_eq!(v.label_name(person), "person");
    }

    #[test]
    fn vocab_attrs_are_separate_namespace() {
        let mut v = Vocab::new();
        let l = v.label("name");
        let a = v.attr("name");
        // Same spelling, independent id spaces.
        assert_eq!(v.label_name(l), v.attr_name(a));
        assert_eq!(v.attr_count(), 1);
    }

    #[test]
    fn iteration_in_id_order() {
        let mut v = Vocab::new();
        v.label("a");
        v.label("b");
        let names: Vec<&str> = v.labels().map(|(_, s)| s).collect();
        assert_eq!(names, vec!["_", "a", "b"]);
    }
}
