//! Symbolic expression simplification: constant folding and algebraic
//! identities.
//!
//! The simplifier is *sound* with respect to the concrete semantics in
//! [`crate::concrete`]: for every full assignment of the symbols,
//! `eval(simplify(e)) == eval(e)` — a property the test suite checks with
//! random expressions.

use minic::ast::{BinOp, UnOp};

use crate::intern::HC;
use crate::value::{OrderedF64, SVal};

/// Simplifies an expression tree bottom-up.
///
/// Hash-consed subtrees already known to be normal (see [`crate::intern`])
/// are returned as they are without being walked, and a node whose
/// children come back unchanged and that no rule rewrites keeps its
/// existing handle, so re-simplifying a simplified value costs O(1) per
/// top-level node and interns nothing.
pub fn simplify(sval: &SVal) -> SVal {
    match sval {
        SVal::Binary { op, lhs, rhs } => {
            let lhs = simplify_hc(lhs);
            let rhs = simplify_hc(rhs);
            rewrite_binary(*op, &lhs, &rhs).unwrap_or(SVal::Binary { op: *op, lhs, rhs })
        }
        SVal::Unary { op, arg } => {
            let arg = simplify_hc(arg);
            rewrite_unary(*op, &arg).unwrap_or(SVal::Unary { op: *op, arg })
        }
        SVal::Call { func, args } => SVal::Call {
            func: func.clone(),
            args: args.iter().map(simplify).collect(),
        },
        SVal::Ite { cond, then, els } => {
            let (cond, then, els) = (simplify_hc(cond), simplify_hc(then), simplify_hc(els));
            rewrite_ite(&cond, &then, &els).unwrap_or(SVal::Ite { cond, then, els })
        }
        other => other.clone(),
    }
}

/// Folds an `ite` node whose children are already simplified.
pub fn fold_ite(cond: SVal, then: SVal, els: SVal) -> SVal {
    rewrite_ite(&cond, &then, &els).unwrap_or_else(|| SVal::ite(cond, then, els))
}

/// `ite(k, a, b)` for a constant `k` is the arm `k` selects, and
/// `ite(c, a, a)` is `a`; tiers 0–2 treat every other `ite` as opaque.
fn rewrite_ite(cond: &SVal, then: &SVal, els: &SVal) -> Option<SVal> {
    let taken = match cond {
        SVal::Int(v) => Some(*v != 0),
        SVal::Float(v) => Some(v.0 != 0.0),
        _ => None,
    };
    match taken {
        Some(true) => Some(then.clone()),
        Some(false) => Some(els.clone()),
        None => (then == els).then(|| then.clone()),
    }
}

/// [`simplify`] on a hash-consed node. A node that simplifies to itself
/// is returned as the same handle and flagged, so later calls skip it.
fn simplify_hc(node: &HC<SVal>) -> HC<SVal> {
    if node.is_normal() {
        return node.clone();
    }
    let simplified = simplify(node);
    if simplified == **node {
        node.mark_normal();
        node.clone()
    } else {
        HC::new(simplified)
    }
}

/// Folds a binary node whose children are already simplified.
pub fn fold_binary(op: BinOp, lhs: SVal, rhs: SVal) -> SVal {
    rewrite_binary(op, &lhs, &rhs).unwrap_or_else(|| SVal::binary(op, lhs, rhs))
}

/// The rewrite of a binary node whose children are already simplified, or
/// `None` when no rule applies and the node stands as built.
fn rewrite_binary(op: BinOp, lhs: &SVal, rhs: &SVal) -> Option<SVal> {
    // Constant folding.
    if let Some(result) = fold_const_binary(op, lhs, rhs) {
        return Some(result);
    }

    // Algebraic identities (integer-safe ones only).
    match (op, lhs, rhs) {
        // x + 0, 0 + x, x - 0
        (BinOp::Add, x, SVal::Int(0)) | (BinOp::Add, SVal::Int(0), x) => return Some(x.clone()),
        (BinOp::Sub, x, SVal::Int(0)) => return Some(x.clone()),
        // x * 1, 1 * x
        (BinOp::Mul, x, SVal::Int(1)) | (BinOp::Mul, SVal::Int(1), x) => return Some(x.clone()),
        // x * 0, 0 * x — only when x is pure (no Unknown; division by zero
        // inside x would already have collapsed to Unknown).
        (BinOp::Mul, x, SVal::Int(0)) | (BinOp::Mul, SVal::Int(0), x) if !x.has_unknown() => {
            return Some(SVal::Int(0));
        }
        // x / 1
        (BinOp::Div, x, SVal::Int(1)) => return Some(x.clone()),
        // x - x, x ^ x (pure x)
        (BinOp::Sub, x, y) | (BinOp::BitXor, x, y) if x == y && !x.has_unknown() => {
            return Some(SVal::Int(0))
        }
        // x == x, x <= x, x >= x (pure x)
        (BinOp::Eq, x, y) | (BinOp::Le, x, y) | (BinOp::Ge, x, y) if x == y && !x.has_unknown() => {
            return Some(SVal::Int(1))
        }
        // x != x, x < x, x > x (pure x)
        (BinOp::Ne, x, y) | (BinOp::Lt, x, y) | (BinOp::Gt, x, y) if x == y && !x.has_unknown() => {
            return Some(SVal::Int(0))
        }
        // logical identities — a falsy constant annihilates `&&`, a truthy
        // one decides `||`. Floats count: `0.0` (and `-0.0`) are falsy in C,
        // any other value (NaN included: NaN != 0.0) is truthy.
        (BinOp::LogAnd, c, _) | (BinOp::LogAnd, _, c)
            if matches!(c, SVal::Int(0)) || matches!(c, SVal::Float(v) if v.0 == 0.0) =>
        {
            return Some(SVal::Int(0))
        }
        (BinOp::LogOr, c, _) | (BinOp::LogOr, _, c)
            if matches!(c, SVal::Int(v) if *v != 0)
                || matches!(c, SVal::Float(v) if v.0 != 0.0) =>
        {
            return Some(SVal::Int(1))
        }
        _ => {}
    }

    // Re-associate constants: (x + a) + b → x + (a+b); (x - a) + b, etc.
    if let (
        BinOp::Add | BinOp::Sub,
        SVal::Binary {
            op: inner_op,
            lhs: il,
            rhs: ir,
        },
        SVal::Int(b),
    ) = (op, lhs, rhs)
    {
        if let (BinOp::Add | BinOp::Sub, SVal::Int(a)) = (*inner_op, ir.as_ref()) {
            if *a == i64::MIN || *b == i64::MIN {
                return None;
            }
            let a = if *inner_op == BinOp::Sub { -a } else { *a };
            let b = if op == BinOp::Sub { -b } else { *b };
            if let Some(sum) = a.checked_add(b).filter(|s| *s != i64::MIN) {
                return Some(match sum.cmp(&0) {
                    std::cmp::Ordering::Equal => il.as_ref().clone(),
                    std::cmp::Ordering::Greater => SVal::Binary {
                        op: BinOp::Add,
                        lhs: il.clone(),
                        rhs: HC::new(SVal::Int(sum)),
                    },
                    std::cmp::Ordering::Less => SVal::Binary {
                        op: BinOp::Sub,
                        lhs: il.clone(),
                        rhs: HC::new(SVal::Int(-sum)),
                    },
                });
            }
        }
    }

    None
}

/// Folds a unary node whose child is already simplified.
pub fn fold_unary(op: UnOp, arg: SVal) -> SVal {
    rewrite_unary(op, &arg).unwrap_or_else(|| SVal::unary(op, arg))
}

/// The rewrite of a unary node whose child is already simplified, or
/// `None` when no rule applies.
fn rewrite_unary(op: UnOp, arg: &SVal) -> Option<SVal> {
    Some(match (op, arg) {
        (UnOp::Plus, x) => x.clone(),
        (UnOp::Neg, SVal::Int(v)) => SVal::Int(v.wrapping_neg()),
        (UnOp::Neg, SVal::Float(v)) => SVal::Float(OrderedF64(-v.0)),
        (UnOp::Not, SVal::Int(v)) => SVal::Int(i64::from(*v == 0)),
        (UnOp::Not, SVal::Float(v)) => SVal::Int(i64::from(v.0 == 0.0)),
        (UnOp::BitNot, SVal::Int(v)) => SVal::Int(!v),
        // --x → x ; !!x is NOT x in C (it is normalization to 0/1), skip.
        (UnOp::Neg, SVal::Unary { op: UnOp::Neg, arg }) => arg.as_ref().clone(),
        _ => return None,
    })
}

fn fold_const_binary(op: BinOp, lhs: &SVal, rhs: &SVal) -> Option<SVal> {
    match (lhs, rhs) {
        (SVal::Int(a), SVal::Int(b)) => fold_ints(op, *a, *b),
        (SVal::Float(a), SVal::Float(b)) => Some(fold_floats(op, a.0, b.0)),
        (SVal::Int(a), SVal::Float(b)) => Some(fold_floats(op, *a as f64, b.0)),
        (SVal::Float(a), SVal::Int(b)) => Some(fold_floats(op, a.0, *b as f64)),
        _ => None,
    }
}

/// Integer semantics: wrapping two's-complement arithmetic; division by
/// zero yields [`SVal::Unknown`] (the engine treats it as an unconstrained
/// result rather than a crash, like Clang SA's undefined-value).
pub fn fold_ints(op: BinOp, a: i64, b: i64) -> Option<SVal> {
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Some(SVal::Unknown);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Some(SVal::Unknown);
            }
            a.wrapping_rem(b)
        }
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::BitAnd => a & b,
        BinOp::BitXor => a ^ b,
        BinOp::BitOr => a | b,
        BinOp::LogAnd => i64::from(a != 0 && b != 0),
        BinOp::LogOr => i64::from(a != 0 || b != 0),
    };
    Some(SVal::Int(v))
}

fn fold_floats(op: BinOp, a: f64, b: f64) -> SVal {
    match op {
        BinOp::Add => SVal::float(a + b),
        BinOp::Sub => SVal::float(a - b),
        BinOp::Mul => SVal::float(a * b),
        BinOp::Div => SVal::float(a / b),
        BinOp::Rem => SVal::float(a % b),
        BinOp::Lt => SVal::Int(i64::from(a < b)),
        BinOp::Le => SVal::Int(i64::from(a <= b)),
        BinOp::Gt => SVal::Int(i64::from(a > b)),
        BinOp::Ge => SVal::Int(i64::from(a >= b)),
        BinOp::Eq => SVal::Int(i64::from(a == b)),
        BinOp::Ne => SVal::Int(i64::from(a != b)),
        BinOp::LogAnd => SVal::Int(i64::from(a != 0.0 && b != 0.0)),
        BinOp::LogOr => SVal::Int(i64::from(a != 0.0 || b != 0.0)),
        // Bit operations on floats do not occur (sema rejects them); be
        // conservative if they somehow do.
        BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitXor | BinOp::BitOr => SVal::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Symbol;

    fn x() -> SVal {
        SVal::Sym(Symbol::new(1, "x"))
    }

    #[test]
    fn folds_constants() {
        let e = SVal::binary(BinOp::Add, SVal::Int(2), SVal::Int(3));
        assert_eq!(simplify(&e), SVal::Int(5));
        let e = SVal::binary(BinOp::Lt, SVal::Int(2), SVal::Int(3));
        assert_eq!(simplify(&e), SVal::Int(1));
    }

    #[test]
    fn folds_mixed_int_float() {
        let e = SVal::binary(BinOp::Mul, SVal::Int(2), SVal::float(1.5));
        assert_eq!(simplify(&e), SVal::float(3.0));
    }

    #[test]
    fn division_by_zero_is_unknown() {
        let e = SVal::binary(BinOp::Div, SVal::Int(2), SVal::Int(0));
        assert_eq!(simplify(&e), SVal::Unknown);
        let e = SVal::binary(BinOp::Rem, SVal::Int(2), SVal::Int(0));
        assert_eq!(simplify(&e), SVal::Unknown);
    }

    #[test]
    fn identity_elimination() {
        assert_eq!(simplify(&SVal::binary(BinOp::Add, x(), SVal::Int(0))), x());
        assert_eq!(simplify(&SVal::binary(BinOp::Mul, SVal::Int(1), x())), x());
        assert_eq!(
            simplify(&SVal::binary(BinOp::Mul, x(), SVal::Int(0))),
            SVal::Int(0)
        );
        assert_eq!(simplify(&SVal::binary(BinOp::Sub, x(), x())), SVal::Int(0));
        assert_eq!(simplify(&SVal::binary(BinOp::Eq, x(), x())), SVal::Int(1));
        assert_eq!(simplify(&SVal::binary(BinOp::Ne, x(), x())), SVal::Int(0));
    }

    #[test]
    fn short_circuit_identities() {
        let e = SVal::binary(BinOp::LogAnd, SVal::Int(0), x());
        assert_eq!(simplify(&e), SVal::Int(0));
        let e = SVal::binary(BinOp::LogOr, SVal::Int(7), x());
        assert_eq!(simplify(&e), SVal::Int(1));
    }

    #[test]
    fn short_circuit_identities_with_floats() {
        // `0.0 && x` and `x && 0.0` are 0 even when x stays symbolic.
        let e = SVal::binary(BinOp::LogAnd, SVal::float(0.0), x());
        assert_eq!(simplify(&e), SVal::Int(0));
        let e = SVal::binary(BinOp::LogAnd, x(), SVal::float(-0.0));
        assert_eq!(simplify(&e), SVal::Int(0));
        // A truthy float decides `||` regardless of the symbolic side.
        let e = SVal::binary(BinOp::LogOr, SVal::float(2.5), x());
        assert_eq!(simplify(&e), SVal::Int(1));
        let e = SVal::binary(BinOp::LogOr, x(), SVal::float(-1.0));
        assert_eq!(simplify(&e), SVal::Int(1));
        // A falsy float must NOT decide `||` (the symbolic side remains).
        let e = SVal::binary(BinOp::LogOr, SVal::float(0.0), x());
        assert!(matches!(simplify(&e), SVal::Binary { .. }));
        // And a truthy float must NOT annihilate `&&`.
        let e = SVal::binary(BinOp::LogAnd, SVal::float(1.5), x());
        assert!(matches!(simplify(&e), SVal::Binary { .. }));
    }

    #[test]
    fn reassociates_added_constants() {
        // (x + 3) + 4 → x + 7
        let e = SVal::binary(
            BinOp::Add,
            SVal::binary(BinOp::Add, x(), SVal::Int(3)),
            SVal::Int(4),
        );
        assert_eq!(simplify(&e), SVal::binary(BinOp::Add, x(), SVal::Int(7)));
        // (x - 5) + 5 → x
        let e = SVal::binary(
            BinOp::Add,
            SVal::binary(BinOp::Sub, x(), SVal::Int(5)),
            SVal::Int(5),
        );
        assert_eq!(simplify(&e), x());
        // (x + 2) - 5 → x - 3
        let e = SVal::binary(
            BinOp::Sub,
            SVal::binary(BinOp::Add, x(), SVal::Int(2)),
            SVal::Int(5),
        );
        assert_eq!(simplify(&e), SVal::binary(BinOp::Sub, x(), SVal::Int(3)));
    }

    #[test]
    fn unary_folding() {
        assert_eq!(
            simplify(&SVal::unary(UnOp::Neg, SVal::Int(4))),
            SVal::Int(-4)
        );
        assert_eq!(
            simplify(&SVal::unary(UnOp::Not, SVal::Int(0))),
            SVal::Int(1)
        );
        assert_eq!(
            simplify(&SVal::unary(UnOp::Neg, SVal::unary(UnOp::Neg, x()))),
            x()
        );
        assert_eq!(simplify(&SVal::unary(UnOp::Plus, x())), x());
    }

    #[test]
    fn zero_times_unknown_is_not_folded() {
        let e = SVal::binary(BinOp::Mul, SVal::Unknown, SVal::Int(0));
        assert!(simplify(&e).has_unknown());
    }

    fn children(v: &SVal) -> (HC<SVal>, HC<SVal>) {
        match v {
            SVal::Binary { lhs, rhs, .. } => (lhs.clone(), rhs.clone()),
            other => panic!("binary expected, got {other}"),
        }
    }

    /// `((x + 0) * y) - (z + 1)`: one rewritten subtree, the rest normal.
    fn mixed(base: u32) -> SVal {
        let sym = |i: u32| SVal::Sym(Symbol::new(base + i, format!("s{i}")));
        SVal::binary(
            BinOp::Sub,
            SVal::binary(
                BinOp::Mul,
                SVal::binary(BinOp::Add, sym(0), SVal::Int(0)),
                sym(1),
            ),
            SVal::binary(BinOp::Add, sym(2), SVal::Int(1)),
        )
    }

    #[test]
    fn resimplifying_a_normal_value_reuses_its_nodes() {
        use crate::intern::Intern;
        let normal = simplify(&mixed(700_000));
        let (lhs, rhs) = children(&normal);
        let entries = SVal::with_interner(|t| t.entries());
        let again = simplify(&normal);
        assert_eq!(SVal::with_interner(|t| t.entries()), entries);
        let (lhs2, rhs2) = children(&again);
        assert!(HC::ptr_eq(&lhs, &lhs2) && HC::ptr_eq(&rhs, &rhs2));
        assert_eq!(again, normal);
    }

    #[test]
    fn nodes_flagged_on_one_thread_simplify_identically_on_another() {
        let input = mixed(710_000);
        let normal = simplify(&input);
        let sent = (input.clone(), normal.clone());
        let (from_input, from_normal, fresh) = std::thread::spawn(move || {
            let (input, normal) = sent;
            // This thread's interner has never seen these nodes; the flags
            // travel with them.
            (
                simplify(&input),
                simplify(&normal),
                simplify(&mixed(710_000)),
            )
        })
        .join()
        .expect("worker thread");
        assert_eq!(from_input, normal);
        assert_eq!(from_normal, normal);
        assert_eq!(fresh, normal);
        let (lhs, rhs) = children(&normal);
        let (lhs2, rhs2) = children(&from_normal);
        assert!(HC::ptr_eq(&lhs, &lhs2) && HC::ptr_eq(&rhs, &rhs2));
    }

    #[test]
    fn wrapping_semantics() {
        let e = SVal::binary(BinOp::Add, SVal::Int(i64::MAX), SVal::Int(1));
        assert_eq!(simplify(&e), SVal::Int(i64::MIN));
    }
}
