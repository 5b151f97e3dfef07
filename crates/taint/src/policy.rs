//! Propagation policy: the `P_*` components of Table I and Fig. 2.
//!
//! Each function mirrors one row of Table I of the paper. They operate on
//! the provenance-precise [`TaintSet`]; projecting the result with
//! [`TaintSet::label`] recovers the paper's lattice-level rule exactly
//! (the projection is a homomorphism, see [`crate::lattice`]).

use crate::lattice::{SourceId, TaintSet};

/// `P_getsecret` — a value read from a secret source is tainted by a fresh
/// source label `tᵢ`.
///
/// # Examples
///
/// ```
/// use taint::{get_secret, Label, SourceId};
/// assert_eq!(get_secret(SourceId::new(1)).label(), Label::Src(SourceId::new(1)));
/// ```
pub fn get_secret(source: SourceId) -> TaintSet {
    TaintSet::source(source)
}

/// `P_const` — constants are not sensitive (⊥).
pub fn constant() -> TaintSet {
    TaintSet::bottom()
}

/// `P_unop` — unary operators preserve the operand's taint.
pub fn unop(operand: &TaintSet) -> TaintSet {
    operand.clone()
}

/// `P_assign` — assignment preserves the right-hand side's taint.
pub fn assign(rhs: &TaintSet) -> TaintSet {
    rhs.clone()
}

/// `P_binop` — binary operators join the taints of both operands (Fig. 2).
///
/// On the paper's lattice this is: ⊥ is the identity, `tᵢ ⊔ tᵢ = tᵢ`,
/// `tᵢ ⊔ tⱼ = ⊤` for `i ≠ j`, and ⊤ absorbs.
pub fn binop(lhs: &TaintSet, rhs: &TaintSet) -> TaintSet {
    lhs.join(rhs)
}

/// `P_cond` — a conditional branch joins the taint of the branch condition
/// into the taint of the current path constraint `π` (Fig. 2).
pub fn cond(condition: &TaintSet, path: &TaintSet) -> TaintSet {
    condition.join(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Label;

    fn src(i: u64) -> TaintSet {
        TaintSet::source(SourceId::new(i))
    }

    #[test]
    fn get_secret_mints_single_source() {
        let ts = get_secret(SourceId::new(7));
        assert!(ts.is_reversible());
        assert_eq!(ts.sole_source(), Some(SourceId::new(7)));
    }

    #[test]
    fn constants_are_bottom() {
        assert_eq!(constant().label(), Label::Bot);
    }

    #[test]
    fn unop_and_assign_preserve() {
        let ts = src(3);
        assert_eq!(unop(&ts), ts);
        assert_eq!(assign(&ts), ts);
        let top = src(1).join(&src(2));
        assert_eq!(unop(&top), top);
        assert_eq!(assign(&top), top);
    }

    /// Exhaustive check of the `P_binop` table of Fig. 2 at the Label level:
    /// every pair drawn from {⊥, t1, t2, ⊤}.
    #[test]
    fn propagation_table_binop() {
        let bot = TaintSet::bottom();
        let t1 = src(1);
        let t2 = src(2);
        let top = src(1).join(&src(2));
        let entries: [(&TaintSet, &TaintSet, Label); 16] = [
            (&bot, &bot, Label::Bot),
            (&bot, &t1, t1.label()),
            (&bot, &t2, t2.label()),
            (&bot, &top, Label::Top),
            (&t1, &bot, t1.label()),
            (&t1, &t1, t1.label()),
            (&t1, &t2, Label::Top),
            (&t1, &top, Label::Top),
            (&t2, &bot, t2.label()),
            (&t2, &t1, Label::Top),
            (&t2, &t2, t2.label()),
            (&t2, &top, Label::Top),
            (&top, &bot, Label::Top),
            (&top, &t1, Label::Top),
            (&top, &t2, Label::Top),
            (&top, &top, Label::Top),
        ];
        for (a, b, expected) in entries {
            assert_eq!(binop(a, b).label(), expected, "binop({a}, {b})");
        }
    }

    /// `P_cond` is the same join, applied to (condition, π).
    #[test]
    fn propagation_table_cond_matches_binop() {
        let samples = [TaintSet::bottom(), src(1), src(2), src(1).join(&src(2))];
        for a in &samples {
            for b in &samples {
                assert_eq!(cond(a, b), binop(a, b));
            }
        }
    }

    #[test]
    fn binop_is_commutative_and_associative_on_samples() {
        let xs = [TaintSet::bottom(), src(1), src(2), src(1).join(&src(2))];
        for a in &xs {
            for b in &xs {
                assert_eq!(binop(a, b), binop(b, a));
                for c in &xs {
                    assert_eq!(binop(&binop(a, b), c), binop(a, &binop(b, c)));
                }
            }
        }
    }
}
