//! The GED model: patterns plus extended literals with disjunction.

use gfd_core::{Dependency, Literal, Operand};
use gfd_graph::{AttrId, GfdId, Pattern, Value, ValueId, ValueTable, VarId, Vocab};
use std::fmt;

/// A comparison operator of a built-in predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Evaluate on interned ids. Equality is a raw `u32` compare; the
    /// order operators use the id order, which matches [`Value`]'s (ints
    /// before bools before strings; each variant ordered naturally).
    pub fn eval_id(self, left: ValueId, right: ValueId) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }

    /// The operator with its operands swapped: `a op b ⇔ b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation: `¬(a op b) ⇔ a op.negate() b`.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Render the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A GED literal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum GedLiteral {
    /// `x.A op c` — attribute against constant.
    AttrConst {
        /// Variable on the left.
        var: VarId,
        /// Attribute of that variable.
        attr: AttrId,
        /// Comparison operator.
        op: CmpOp,
        /// Constant right-hand side (interned).
        value: ValueId,
    },
    /// `x.A op y.B` — attribute against attribute.
    AttrAttr {
        /// Variable on the left.
        var: VarId,
        /// Attribute on the left.
        attr: AttrId,
        /// Comparison operator.
        op: CmpOp,
        /// Variable on the right.
        other_var: VarId,
        /// Attribute on the right.
        other_attr: AttrId,
    },
    /// `x.id = y.id` — the two variables denote the same node.
    Id {
        /// Left variable.
        left: VarId,
        /// Right variable.
        right: VarId,
    },
}

impl GedLiteral {
    /// `x.A = c`.
    pub fn eq_const(var: VarId, attr: AttrId, value: impl Into<Value>) -> Self {
        GedLiteral::AttrConst {
            var,
            attr,
            op: CmpOp::Eq,
            value: ValueTable::intern(&value.into()),
        }
    }

    /// `x.A op c`.
    pub fn cmp_const(var: VarId, attr: AttrId, op: CmpOp, value: impl Into<Value>) -> Self {
        GedLiteral::AttrConst {
            var,
            attr,
            op,
            value: ValueTable::intern(&value.into()),
        }
    }

    /// `x.A op c` from an already-interned id.
    pub fn cmp_id(var: VarId, attr: AttrId, op: CmpOp, value: ValueId) -> Self {
        GedLiteral::AttrConst {
            var,
            attr,
            op,
            value,
        }
    }

    /// `x.A = y.B`.
    pub fn eq_attr(var: VarId, attr: AttrId, other_var: VarId, other_attr: AttrId) -> Self {
        GedLiteral::AttrAttr {
            var,
            attr,
            op: CmpOp::Eq,
            other_var,
            other_attr,
        }
    }

    /// `x.A op y.B`.
    pub fn cmp_attr(
        var: VarId,
        attr: AttrId,
        op: CmpOp,
        other_var: VarId,
        other_attr: AttrId,
    ) -> Self {
        GedLiteral::AttrAttr {
            var,
            attr,
            op,
            other_var,
            other_attr,
        }
    }

    /// `x.id = y.id`.
    pub fn id(left: VarId, right: VarId) -> Self {
        GedLiteral::Id { left, right }
    }

    /// Variables mentioned by the literal.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let (a, b) = match self {
            GedLiteral::AttrConst { var, .. } => (*var, None),
            GedLiteral::AttrAttr { var, other_var, .. } => (*var, Some(*other_var)),
            GedLiteral::Id { left, right } => (*left, Some(*right)),
        };
        std::iter::once(a).chain(b)
    }

    /// Convert a plain GFD literal.
    pub fn from_literal(lit: &Literal) -> Self {
        match &lit.rhs {
            Operand::Const(c) => GedLiteral::AttrConst {
                var: lit.var,
                attr: lit.attr,
                op: CmpOp::Eq,
                value: *c,
            },
            Operand::Attr(v, a) => GedLiteral::eq_attr(lit.var, lit.attr, *v, *a),
        }
    }

    /// Render with variable and attribute names.
    pub fn display<'a>(&'a self, pattern: &'a Pattern, vocab: &'a Vocab) -> GedLiteralDisplay<'a> {
        GedLiteralDisplay {
            literal: self,
            pattern,
            vocab,
        }
    }
}

/// Helper for rendering a GED literal with names.
pub struct GedLiteralDisplay<'a> {
    literal: &'a GedLiteral,
    pattern: &'a Pattern,
    vocab: &'a Vocab,
}

impl fmt::Display for GedLiteralDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.literal {
            GedLiteral::AttrConst {
                var,
                attr,
                op,
                value,
            } => write!(
                f,
                "{}.{} {} {value:?}",
                self.pattern.var_name(*var),
                self.vocab.attr_name(*attr),
                op.symbol(),
            ),
            GedLiteral::AttrAttr {
                var,
                attr,
                op,
                other_var,
                other_attr,
            } => write!(
                f,
                "{}.{} {} {}.{}",
                self.pattern.var_name(*var),
                self.vocab.attr_name(*attr),
                op.symbol(),
                self.pattern.var_name(*other_var),
                self.vocab.attr_name(*other_attr),
            ),
            GedLiteral::Id { left, right } => write!(
                f,
                "{}.id = {}.id",
                self.pattern.var_name(*left),
                self.pattern.var_name(*right),
            ),
        }
    }
}

/// A graph entity dependency `Q[x̄](X → Y₁ ∨ … ∨ Yₙ)`.
///
/// The premise `X` is a conjunction; the consequence is a disjunction of
/// conjunctions (DNF). A plain GFD corresponds to a single disjunct. An
/// empty disjunct list encodes the consequence `false` (a denial); a
/// disjunct that is an empty conjunction encodes `true`.
#[derive(Clone, Debug)]
pub struct Ged {
    /// Human-readable name.
    pub name: String,
    /// The pattern `Q[x̄]`.
    pub pattern: Pattern,
    /// Premise conjunction `X`.
    pub premise: Vec<GedLiteral>,
    /// Consequence disjuncts `Y₁ ∨ … ∨ Yₙ`; each disjunct is a conjunction.
    pub disjuncts: Vec<Vec<GedLiteral>>,
}

impl Ged {
    /// Build a GED, validating variable references.
    pub fn new(
        name: impl Into<String>,
        pattern: Pattern,
        premise: Vec<GedLiteral>,
        disjuncts: Vec<Vec<GedLiteral>>,
    ) -> Self {
        let ged = Ged {
            name: name.into(),
            pattern,
            premise,
            disjuncts,
        };
        ged.assert_well_formed();
        ged
    }

    /// A single-disjunct GED (conjunctive consequence, like a GFD).
    pub fn conjunctive(
        name: impl Into<String>,
        pattern: Pattern,
        premise: Vec<GedLiteral>,
        consequence: Vec<GedLiteral>,
    ) -> Self {
        Ged::new(name, pattern, premise, vec![consequence])
    }

    /// A denial GED: the pattern (with premise) must not occur.
    pub fn denial(name: impl Into<String>, pattern: Pattern, premise: Vec<GedLiteral>) -> Self {
        Ged::new(name, pattern, premise, Vec::new())
    }

    fn assert_well_formed(&self) {
        let n = self.pattern.node_count();
        assert!(n > 0, "GED `{}` has an empty pattern", self.name);
        let all = self.premise.iter().chain(self.disjuncts.iter().flatten());
        for lit in all {
            for v in lit.vars() {
                assert!(
                    v.index() < n,
                    "GED `{}` references unknown variable {v}",
                    self.name
                );
            }
        }
    }

    /// Lift a plain GFD — a dependency with a literal consequence — into a
    /// GED; `None` for a generating one (a GED cannot create nodes).
    pub fn from_dependency(dep: &Dependency) -> Option<Self> {
        let lits = dep.consequence.literals()?;
        Some(Ged {
            name: dep.name.clone(),
            pattern: dep.pattern.clone(),
            premise: dep.premise.iter().map(GedLiteral::from_literal).collect(),
            disjuncts: vec![lits.iter().map(GedLiteral::from_literal).collect()],
        })
    }

    /// True iff the consequence is `false` (no disjunct).
    pub fn is_denial(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Render with names resolved through `vocab`.
    pub fn display<'a>(&'a self, vocab: &'a Vocab) -> GedDisplay<'a> {
        GedDisplay { ged: self, vocab }
    }
}

/// Helper for rendering a GED with human-readable names.
pub struct GedDisplay<'a> {
    ged: &'a Ged,
    vocab: &'a Vocab,
}

impl fmt::Display for GedDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.ged;
        write!(f, "{}: Q[", g.name)?;
        for (i, v) in g.pattern.vars().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}:{}",
                g.pattern.var_name(v),
                self.vocab.label_name(g.pattern.label(v))
            )?;
        }
        write!(f, "](")?;
        if g.premise.is_empty() {
            write!(f, "∅")?;
        }
        for (i, l) in g.premise.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{}", l.display(&g.pattern, self.vocab))?;
        }
        write!(f, " → ")?;
        if g.disjuncts.is_empty() {
            write!(f, "false")?;
        }
        for (i, disjunct) in g.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            if g.disjuncts.len() > 1 {
                write!(f, "(")?;
            }
            if disjunct.is_empty() {
                write!(f, "true")?;
            }
            for (j, l) in disjunct.iter().enumerate() {
                if j > 0 {
                    write!(f, " ∧ ")?;
                }
                write!(f, "{}", l.display(&g.pattern, self.vocab))?;
            }
            if g.disjuncts.len() > 1 {
                write!(f, ")")?;
            }
        }
        write!(f, ")")
    }
}

/// An ordered set of GEDs.
#[derive(Clone, Debug, Default)]
pub struct GedSet {
    geds: Vec<Ged>,
}

impl GedSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector.
    pub fn from_vec(geds: Vec<Ged>) -> Self {
        GedSet { geds }
    }

    /// Append, returning the new id.
    pub fn push(&mut self, ged: Ged) -> GfdId {
        let id = GfdId::new(self.geds.len());
        self.geds.push(ged);
        id
    }

    /// Look up by id.
    pub fn get(&self, id: GfdId) -> &Ged {
        &self.geds[id.index()]
    }

    /// Number of GEDs.
    pub fn len(&self) -> usize {
        self.geds.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.geds.is_empty()
    }

    /// Iterate with ids.
    pub fn iter(&self) -> impl Iterator<Item = (GfdId, &Ged)> {
        self.geds
            .iter()
            .enumerate()
            .map(|(i, g)| (GfdId::new(i), g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_pattern(vocab: &mut Vocab) -> (Pattern, VarId, VarId) {
        let person = vocab.label("person");
        let knows = vocab.label("knows");
        let mut p = Pattern::new();
        let x = p.add_node(person, "x");
        let y = p.add_node(person, "y");
        p.add_edge(x, knows, y);
        (p, x, y)
    }

    #[test]
    fn cmp_op_eval_covers_all_ops() {
        let a = ValueId::of(1i64);
        let b = ValueId::of(2i64);
        assert!(CmpOp::Eq.eval_id(a, a));
        assert!(!CmpOp::Eq.eval_id(a, b));
        assert!(CmpOp::Ne.eval_id(a, b));
        assert!(CmpOp::Lt.eval_id(a, b));
        assert!(CmpOp::Le.eval_id(a, a));
        assert!(CmpOp::Gt.eval_id(b, a));
        assert!(CmpOp::Ge.eval_id(b, b));
    }

    #[test]
    fn flip_and_negate_are_involutions_on_eval() {
        let vals = [ValueId::of(1i64), ValueId::of(2i64), ValueId::of("a")];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for op in ops {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
            for a in vals {
                for b in vals {
                    assert_eq!(op.eval_id(a, b), op.flip().eval_id(b, a), "{op:?} flip");
                    assert_eq!(
                        op.eval_id(a, b),
                        !op.negate().eval_id(a, b),
                        "{op:?} negate"
                    );
                }
            }
        }
    }

    #[test]
    fn build_and_display_a_key() {
        let mut vocab = Vocab::new();
        let (p, x, y) = person_pattern(&mut vocab);
        let email = vocab.attr("email");
        let key = Ged::conjunctive(
            "person-key",
            p,
            vec![GedLiteral::eq_attr(x, email, y, email)],
            vec![GedLiteral::id(x, y)],
        );
        let shown = key.display(&vocab).to_string();
        assert!(shown.contains("x.email = y.email"), "{shown}");
        assert!(shown.contains("x.id = y.id"), "{shown}");
        assert!(!key.is_denial());
    }

    #[test]
    fn disjunctive_display_parenthesizes() {
        let mut vocab = Vocab::new();
        let (p, x, _) = person_pattern(&mut vocab);
        let age = vocab.attr("age");
        let ged = Ged::new(
            "adult-or-minor",
            p,
            vec![],
            vec![
                vec![GedLiteral::cmp_const(x, age, CmpOp::Ge, 18i64)],
                vec![GedLiteral::cmp_const(x, age, CmpOp::Lt, 18i64)],
            ],
        );
        let shown = ged.display(&vocab).to_string();
        assert!(shown.contains(") ∨ ("), "{shown}");
        assert!(shown.contains("x.age >= 18"), "{shown}");
    }

    #[test]
    fn denial_displays_false() {
        let mut vocab = Vocab::new();
        let (p, _, _) = person_pattern(&mut vocab);
        let ged = Ged::denial("no-self", p, vec![]);
        assert!(ged.is_denial());
        assert!(ged.display(&vocab).to_string().contains("false"));
    }

    #[test]
    fn from_gfd_round_trips_literals() {
        let mut vocab = Vocab::new();
        let (p, x, y) = person_pattern(&mut vocab);
        let a = vocab.attr("a");
        let gfd = Dependency::new(
            "g",
            p,
            vec![Literal::eq_const(x, a, 5i64)],
            vec![Literal::eq_attr(x, a, y, a)],
        );
        let ged = Ged::from_dependency(&gfd).expect("literal consequence");
        assert_eq!(ged.premise.len(), 1);
        assert_eq!(ged.disjuncts.len(), 1);
        let (when, then) = (&ged.premise[0], &ged.disjuncts[0][0]);
        assert!(matches!(when, GedLiteral::AttrConst { op: CmpOp::Eq, .. }));
        assert!(matches!(then, GedLiteral::AttrAttr { op: CmpOp::Eq, .. }));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_panics() {
        let mut vocab = Vocab::new();
        let (p, _, _) = person_pattern(&mut vocab);
        let a = vocab.attr("a");
        let _ = Ged::conjunctive(
            "bad",
            p,
            vec![],
            vec![GedLiteral::eq_const(VarId::new(7), a, 1i64)],
        );
    }

    #[test]
    fn ged_set_push_get_iter() {
        let mut vocab = Vocab::new();
        let (p, _, _) = person_pattern(&mut vocab);
        let mut set = GedSet::new();
        assert!(set.is_empty());
        let id = set.push(Ged::denial("d", p, vec![]));
        assert_eq!(set.len(), 1);
        assert_eq!(set.get(id).name, "d");
        assert_eq!(set.iter().count(), 1);
    }
}
