//! Recovery-formula synthesis for explicit leaks.
//!
//! §V-C: "For explicit information leakage cases, the report describes how
//! program output can be used to infer its (secret) input." When the
//! escaping value is an invertible composition over a single secret symbol
//! — affine arithmetic, negation, bitwise complement, XOR with constants —
//! this module solves for the secret and renders the attacker's recovery
//! formula, e.g. `secrets[0] = (observed - 101)`.

use minic::ast::{BinOp, UnOp};
use symexec::value::SVal;

/// Attempts to symbolically invert `value = f(secret)` for the (unique)
/// secret symbol with id `secret_id`.
///
/// Returns the recovery expression in terms of `observed`, or `None` when
/// the computation is not a chain of invertible steps (the attacker would
/// need more than arithmetic — e.g. `s * s`, `s & mask`, uninterpreted
/// calls).
pub fn recovery_formula(value: &SVal, secret_id: u64) -> Option<String> {
    // Peel invertible operations off the outside, accumulating the inverse
    // applied to "observed".
    let mut current = value;
    let mut observed = String::from("observed");
    loop {
        match current {
            SVal::Sym(sym) if sym.id == secret_id => return Some(observed),
            SVal::Unary { op, arg } => {
                match op {
                    UnOp::Neg => observed = format!("-({observed})"),
                    UnOp::BitNot => observed = format!("~({observed})"),
                    // `!x` and `+x`: `!` is lossy, `+` is identity
                    UnOp::Plus => {}
                    UnOp::Not => return None,
                }
                current = arg;
            }
            SVal::Binary { op, lhs, rhs } => {
                // exactly one side must contain the secret; the other must
                // be a constant for the step to be invertible by the host
                let (secret_side, const_side, secret_on_left) =
                    match (contains(lhs, secret_id), contains(rhs, secret_id)) {
                        (true, false) => (lhs, rhs, true),
                        (false, true) => (rhs, lhs, false),
                        _ => return None,
                    };
                let constant = render_const(const_side)?;
                match (op, secret_on_left) {
                    (BinOp::Add, _) => {
                        observed = format!("({observed} - {constant})");
                    }
                    (BinOp::Sub, true) => {
                        // o = s - c  ⇒  s = o + c
                        observed = format!("({observed} + {constant})");
                    }
                    (BinOp::Sub, false) => {
                        // o = c - s  ⇒  s = c - o
                        observed = format!("({constant} - {observed})");
                    }
                    (BinOp::Mul, _) => {
                        if is_zero(const_side) {
                            return None;
                        }
                        observed = format!("({observed} / {constant})");
                    }
                    (BinOp::BitXor, _) => {
                        observed = format!("({observed} ^ {constant})");
                    }
                    // division/shift/and/or/comparisons lose information
                    _ => return None,
                }
                current = secret_side;
            }
            // anything else (constants, calls, unknowns) cannot lead to
            // the secret symbol
            _ => return None,
        }
    }
}

fn contains(value: &SVal, secret_id: u64) -> bool {
    let mut ids = std::collections::BTreeSet::new();
    value.symbols(&mut ids);
    ids.contains(&secret_id)
}

fn render_const(value: &SVal) -> Option<String> {
    match value {
        SVal::Int(v) => Some(v.to_string()),
        SVal::Float(v) => Some(v.to_string()),
        _ => None,
    }
}

fn is_zero(value: &SVal) -> bool {
    matches!(value, SVal::Int(0)) || matches!(value, SVal::Float(f) if f.0 == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symexec::value::Symbol;

    fn s() -> SVal {
        SVal::Sym(Symbol::new(7, "secret"))
    }

    #[test]
    fn identity() {
        assert_eq!(recovery_formula(&s(), 7).as_deref(), Some("observed"));
    }

    #[test]
    fn affine_chain() {
        // o = (s * 2) + 101  ⇒  s = ((o - 101) / 2)
        let v = SVal::binary(
            BinOp::Add,
            SVal::binary(BinOp::Mul, s(), SVal::Int(2)),
            SVal::Int(101),
        );
        assert_eq!(
            recovery_formula(&v, 7).as_deref(),
            Some("((observed - 101) / 2)")
        );
    }

    #[test]
    fn constant_minus_secret() {
        // o = 100 - s  ⇒  s = 100 - o
        let v = SVal::binary(BinOp::Sub, SVal::Int(100), s());
        assert_eq!(recovery_formula(&v, 7).as_deref(), Some("(100 - observed)"));
    }

    #[test]
    fn negation_and_xor() {
        // o = -(s ^ 0xFF)  ⇒  s = (-(o)) ^ 0xFF
        let v = SVal::unary(UnOp::Neg, SVal::binary(BinOp::BitXor, s(), SVal::Int(255)));
        assert_eq!(
            recovery_formula(&v, 7).as_deref(),
            Some("(-(observed) ^ 255)")
        );
    }

    #[test]
    fn lossy_operations_refuse() {
        for v in [
            SVal::binary(BinOp::Mul, s(), s()), // s² — both sides secret
            SVal::binary(BinOp::BitAnd, s(), SVal::Int(1)), // mask
            SVal::binary(BinOp::Div, s(), SVal::Int(2)), // integer division
            SVal::binary(BinOp::Shr, s(), SVal::Int(3)),
            SVal::unary(UnOp::Not, s()),
            SVal::Call {
                func: "sqrt".into(),
                args: vec![s()],
            },
        ] {
            assert_eq!(recovery_formula(&v, 7), None, "{v} should be lossy");
        }
    }

    #[test]
    fn multiplication_by_zero_refuses() {
        let v = SVal::binary(BinOp::Mul, s(), SVal::Int(0));
        assert_eq!(recovery_formula(&v, 7), None);
    }

    #[test]
    fn wrong_symbol_refuses() {
        assert_eq!(recovery_formula(&s(), 8), None);
    }
}
