//! Model extraction: turn a conflict-free equivalence relation over a
//! canonical graph into a concrete Σ-bounded population (Theorem 1's
//! witness).

use crate::eq::EqRel;
use crate::error::AttrKey;
use gfd_graph::{Graph, Value, ValueId, ValueTable};
use std::fmt::Write;

/// Prefix of the fresh constants assigned to unbound classes. Generators
/// never produce values starting with it, but a Σ may spell one: the
/// read-out skips those ([`populate_model`]), so fresh values are distinct
/// from every constant in Σ (required for the population to satisfy Σ —
/// see §IV-C, step (c)).
pub const FRESH_PREFIX: &str = "\u{22a5}"; // ⊥

/// A copy of `canonical` populated by [`populate_model`], for a Σ that
/// spells no fresh constant. Kept for gfdbench; everything else clones
/// and calls [`populate_model`] with Σ's spelled constants.
pub fn extract_model(canonical: &Graph, eq: &mut EqRel) -> Graph /* gfdbench-pin */ {
    let mut model = canonical.clone();
    populate_model(&mut model, eq, &[]);
    model
}

/// Populate `graph` — the canonical graph, owned by the caller — with the
/// attributes of `eq`: bound classes get their constant, unbound classes
/// get pairwise-distinct fresh constants `⊥1, ⊥2, …` numbered by each
/// class's least key, so the model is the same at every worker count;
/// a number whose spelling is in `spelled` (Σ's
/// [`crate::DepSet::fresh_spelled`]) is skipped.
/// Only *materialized* keys are populated — attributes that premises
/// merely mentioned stay absent, as the population is free to omit them.
///
/// No allocation per class: one pass over the materialized slots finds
/// each unbound class's least key (indexed by root slot), a sort of those
/// numbers the classes, and a second pass writes every key's value.
pub fn populate_model(graph: &mut Graph, eq: &mut EqRel, spelled: &[ValueId]) {
    let mut least: Vec<Option<AttrKey>> = vec![None; eq.key_count()];
    for (key, root, constant) in eq.materialized_keys() {
        let l = &mut least[root as usize];
        if constant.is_none() && l.is_none_or(|l| key < l) {
            *l = Some(key);
        }
    }
    let mut unbound: Vec<(AttrKey, u32)> = (least.iter().enumerate())
        .filter_map(|(root, l)| Some(((*l)?, root as u32)))
        .collect();
    unbound.sort_unstable();
    let mut fresh = vec![ValueId::NONE; least.len()];
    let mut name = String::new();
    let mut n = 0;
    for &(_, root) in &unbound {
        fresh[root as usize] = loop {
            n += 1;
            name.clear();
            write!(name, "{FRESH_PREFIX}{n}").expect("writing to a String");
            let value = ValueTable::intern_str(&name);
            if !spelled.contains(&value) {
                break value;
            }
        };
    }
    for ((node, attr), root, constant) in eq.materialized_keys() {
        graph.set_attr_id(node, attr, constant.unwrap_or(fresh[root as usize]));
    }
}

/// Is `value` one of the fresh constants invented by [`populate_model`]?
pub fn is_fresh(value: &Value) -> bool {
    value.as_str().is_some_and(|s| s.starts_with(FRESH_PREFIX))
}

/// Id-level variant of [`is_fresh`].
pub fn is_fresh_id(value: ValueId) -> bool {
    value.as_str().is_some_and(|s| s.starts_with(FRESH_PREFIX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::Vocab;

    /// The model of `g` under `eq` for a Σ that spells no fresh constant.
    fn model_of(g: &Graph, eq: &mut EqRel) -> Graph {
        let mut model = g.clone();
        populate_model(&mut model, eq, &[]);
        model
    }

    #[test]
    fn bound_and_unbound_classes_materialize() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let mut g = Graph::new();
        let n0 = g.add_node(t);
        let n1 = g.add_node(t);

        let mut eq = EqRel::new();
        eq.bind((n0, a), ValueId::of(7i64)).unwrap();
        eq.merge((n0, b), (n1, a)).unwrap();
        eq.ensure((n1, b));

        let model = model_of(&g, &mut eq);
        assert_eq!(model.attr(n0, a), Some(ValueId::of(7i64)));
        // Merged class shares one fresh value.
        let v1 = model.attr(n0, b).unwrap();
        let v2 = model.attr(n1, a).unwrap();
        assert_eq!(v1, v2);
        assert!(is_fresh_id(v1));
        // `ensure` only registers a latent key (a premise mention): the
        // population is free to omit it, and extraction does.
        assert_eq!(model.attr(n1, b), None);
        assert!(!eq.is_materialized((n1, b)));
        // Σ-bounded: attributes added = materialized keys (3 of 4).
        assert_eq!(eq.key_count(), 4);
        assert_eq!(model.attr_count(), 3);
    }

    #[test]
    fn latent_key_materializes_on_merge() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let mut g = Graph::new();
        let n0 = g.add_node(t);

        let mut eq = EqRel::new();
        eq.ensure((n0, a));
        assert!(!eq.is_materialized((n0, a)));
        // A merge endpoint is forced to exist: it materializes.
        eq.merge((n0, a), (n0, b)).unwrap();
        let model = model_of(&g, &mut eq);
        assert!(model.attr(n0, a).is_some());
        assert_eq!(model.attr(n0, a), model.attr(n0, b));
        assert_eq!(model.attr_count(), 2);
    }

    #[test]
    fn structure_is_preserved() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let mut g = Graph::new();
        let n0 = g.add_node(t);
        let n1 = g.add_node(t);
        g.add_edge(n0, e, n1);
        let mut eq = EqRel::new();
        let model = model_of(&g, &mut eq);
        assert_eq!(model.node_count(), 2);
        assert!(model.has_edge(n0, e, n1));
        assert_eq!(model.attr_count(), 0);
    }

    #[test]
    fn fresh_detection() {
        assert!(is_fresh(&Value::str("\u{22a5}3")));
        assert!(!is_fresh(&Value::str("ordinary")));
        assert!(!is_fresh(&Value::int(3)));
    }
}
