//! Concrete evaluation of symbolic expressions under a full assignment.
//!
//! Used to validate the simplifier and the constraint manager: a symbolic
//! expression evaluated under an assignment must agree with its simplified
//! form, and a model produced for a path condition must satisfy it.
//!
//! Two evaluators live here. [`eval`] is the original integer-only one the
//! feasibility logic uses. [`ceval`] is the full numeric evaluator behind
//! the differential oracle's cross-interpreter pre-flight: it mirrors the
//! SGX simulator's semantics (`sgx_sim::interp`) — wrapping integer
//! arithmetic, `& 63` shift masks, float contamination, and the same math
//! builtins — so a symbolic value replayed under a concrete assignment can
//! be compared against what the simulator actually computed.

use std::collections::BTreeMap;

use minic::ast::{BinOp, UnOp};

use crate::simplify::fold_ints;
use crate::value::SVal;

/// Maps symbol ids to concrete integer values.
pub type Assignment = BTreeMap<u32, i64>;

/// Evaluates `sval` under `assignment`.
///
/// Returns `None` when the expression contains [`SVal::Unknown`], a pointer
/// value, an uninterpreted call, floats (the checker's feasibility logic is
/// integer-only), or an unassigned symbol — i.e. whenever no unique concrete
/// integer is denoted.
pub fn eval(sval: &SVal, assignment: &Assignment) -> Option<i64> {
    match sval {
        SVal::Int(v) => Some(*v),
        SVal::Float(_) => None,
        SVal::Sym(sym) => assignment.get(&sym.id).copied(),
        SVal::Loc(_) => None,
        SVal::Binary { op, lhs, rhs } => {
            // && and || short-circuit, but with both sides total this is
            // observationally the same as strict evaluation.
            let a = eval(lhs, assignment)?;
            let b = eval(rhs, assignment)?;
            match fold_ints(*op, a, b)? {
                SVal::Int(v) => Some(v),
                _ => None, // division by zero
            }
        }
        SVal::Unary { op, arg } => {
            let v = eval(arg, assignment)?;
            Some(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Plus => v,
                UnOp::Not => i64::from(v == 0),
                UnOp::BitNot => !v,
            })
        }
        SVal::Call { .. } | SVal::Unknown => None,
    }
}

/// Evaluates `sval` as a branch condition: `Some(true)` if non-zero.
pub fn eval_bool(sval: &SVal, assignment: &Assignment) -> Option<bool> {
    eval(sval, assignment).map(|v| v != 0)
}

/// A tiny helper for tests: builds an assignment from pairs.
pub fn assignment<I: IntoIterator<Item = (u32, i64)>>(pairs: I) -> Assignment {
    pairs.into_iter().collect()
}

/// A concrete numeric value: what one run of the program computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CVal {
    /// A 64-bit integer.
    Int(i64),
    /// An IEEE double.
    Float(f64),
}

impl CVal {
    /// The value as a float, coercing integers (the simulator's
    /// `Value::as_float` rule).
    #[must_use]
    pub fn as_float(self) -> f64 {
        match self {
            CVal::Int(v) => v as f64,
            CVal::Float(v) => v,
        }
    }

    /// C truthiness: non-zero is true.
    #[must_use]
    pub fn truthy(self) -> bool {
        match self {
            CVal::Int(v) => v != 0,
            CVal::Float(v) => v != 0.0,
        }
    }

    /// Numeric agreement for differential comparison: exact on integers,
    /// numeric (`-0.0 == 0.0`) on floats with both-NaN counting as
    /// agreement, cross-width by float coercion.
    #[must_use]
    pub fn same_number(self, other: CVal) -> bool {
        match (self, other) {
            (CVal::Int(a), CVal::Int(b)) => a == b,
            (a, b) => {
                let (a, b) = (a.as_float(), b.as_float());
                a == b || (a.is_nan() && b.is_nan())
            }
        }
    }
}

/// Maps symbol ids to concrete numeric values.
pub type CAssignment = BTreeMap<u32, CVal>;

fn cfold(op: BinOp, a: CVal, b: CVal) -> Option<CVal> {
    // Float contamination first, exactly as `sgx_sim::interp::binop`.
    if matches!(a, CVal::Float(_)) || matches!(b, CVal::Float(_)) {
        let (x, y) = (a.as_float(), b.as_float());
        return Some(match op {
            BinOp::Add => CVal::Float(x + y),
            BinOp::Sub => CVal::Float(x - y),
            BinOp::Mul => CVal::Float(x * y),
            BinOp::Div => CVal::Float(x / y),
            BinOp::Rem => CVal::Float(x % y),
            BinOp::Lt => CVal::Int(i64::from(x < y)),
            BinOp::Le => CVal::Int(i64::from(x <= y)),
            BinOp::Gt => CVal::Int(i64::from(x > y)),
            BinOp::Ge => CVal::Int(i64::from(x >= y)),
            BinOp::Eq => CVal::Int(i64::from(x == y)),
            BinOp::Ne => CVal::Int(i64::from(x != y)),
            BinOp::LogAnd => CVal::Int(i64::from(x != 0.0 && y != 0.0)),
            BinOp::LogOr => CVal::Int(i64::from(x != 0.0 || y != 0.0)),
            // The simulator faults on these; there is no number to agree on.
            BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitXor | BinOp::BitOr => return None,
        });
    }
    let (CVal::Int(x), CVal::Int(y)) = (a, b) else {
        return None;
    };
    // Integer division by zero faults in the simulator and is `Unknown`
    // symbolically — either way, not a unique number.
    match fold_ints(op, x, y)? {
        SVal::Int(v) => Some(CVal::Int(v)),
        _ => None,
    }
}

/// Evaluates `sval` to a concrete number under `assignment`, mirroring the
/// SGX simulator's runtime semantics.
///
/// Returns `None` for pointers, [`SVal::Unknown`], unassigned symbols,
/// integer division by zero, and calls the simulator does not model as
/// pure math — whenever symbolic and concrete semantics could diverge for
/// reasons that are not analyzer bugs.
pub fn ceval(sval: &SVal, assignment: &CAssignment) -> Option<CVal> {
    match sval {
        SVal::Int(v) => Some(CVal::Int(*v)),
        SVal::Float(v) => Some(CVal::Float(v.0)),
        SVal::Sym(sym) => assignment.get(&sym.id).copied(),
        SVal::Loc(_) => None,
        SVal::Binary { op, lhs, rhs } => {
            // && and || short-circuit at runtime, but both sides are total
            // here, so strict evaluation is observationally identical.
            let a = ceval(lhs, assignment)?;
            let b = ceval(rhs, assignment)?;
            cfold(*op, a, b)
        }
        SVal::Unary { op, arg } => {
            let v = ceval(arg, assignment)?;
            Some(match (op, v) {
                (UnOp::Neg, CVal::Int(i)) => CVal::Int(i.wrapping_neg()),
                (UnOp::Neg, CVal::Float(f)) => CVal::Float(-f),
                (UnOp::Plus, v) => v,
                (UnOp::Not, v) => CVal::Int(i64::from(!v.truthy())),
                (UnOp::BitNot, CVal::Int(i)) => CVal::Int(!i),
                (UnOp::BitNot, CVal::Float(_)) => return None,
            })
        }
        SVal::Call { func, args } => {
            if &**func == "ite" {
                // The engine's non-forking ternary: `ite(cond, then, else)`.
                // The simulator evaluates only the taken arm, so the untaken
                // arm is allowed to be unevaluable without disagreement.
                let cond = ceval(args.first()?, assignment)?;
                let chosen = if cond.truthy() {
                    args.get(1)?
                } else {
                    args.get(2)?
                };
                return ceval(chosen, assignment);
            }
            let vals: Vec<CVal> = args
                .iter()
                .map(|a| ceval(a, assignment))
                .collect::<Option<_>>()?;
            let f1 = || vals.first().map(|v| v.as_float());
            Some(match &**func {
                "sqrt" | "sqrtf" => CVal::Float(f1()?.sqrt()),
                "fabs" | "fabsf" => CVal::Float(f1()?.abs()),
                "exp" => CVal::Float(f1()?.exp()),
                "log" => CVal::Float(f1()?.ln()),
                "floor" => CVal::Float(f1()?.floor()),
                "ceil" => CVal::Float(f1()?.ceil()),
                "sin" => CVal::Float(f1()?.sin()),
                "cos" => CVal::Float(f1()?.cos()),
                "pow" => CVal::Float(f1()?.powf(vals.get(1)?.as_float())),
                "abs" => match vals.first()? {
                    CVal::Int(i) => CVal::Int(i.abs()),
                    CVal::Float(f) => CVal::Int((*f as i64).abs()),
                },
                // `rand`/`srand`/IO are stateful in the simulator; an
                // uninterpreted symbolic call has no pure denotation.
                _ => return None,
            })
        }
        SVal::Unknown => None,
    }
}

/// Evaluates `sval` as a branch condition under a numeric assignment.
pub fn ceval_bool(sval: &SVal, assignment: &CAssignment) -> Option<bool> {
    ceval(sval, assignment).map(CVal::truthy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Symbol;
    use minic::ast::BinOp;

    fn x() -> SVal {
        SVal::Sym(Symbol::new(1, "x"))
    }

    #[test]
    fn evaluates_expressions() {
        let e = SVal::binary(
            BinOp::Add,
            SVal::binary(BinOp::Mul, SVal::Int(2), x()),
            SVal::Int(5),
        );
        assert_eq!(eval(&e, &assignment([(1, 10)])), Some(25));
    }

    #[test]
    fn unassigned_symbol_is_none() {
        assert_eq!(eval(&x(), &assignment([])), None);
    }

    #[test]
    fn division_by_zero_is_none() {
        let e = SVal::binary(BinOp::Div, SVal::Int(1), x());
        assert_eq!(eval(&e, &assignment([(1, 0)])), None);
        assert_eq!(eval(&e, &assignment([(1, 2)])), Some(0));
    }

    #[test]
    fn bool_evaluation() {
        let e = SVal::binary(BinOp::Gt, x(), SVal::Int(3));
        assert_eq!(eval_bool(&e, &assignment([(1, 5)])), Some(true));
        assert_eq!(eval_bool(&e, &assignment([(1, 1)])), Some(false));
    }

    #[test]
    fn unknown_and_calls_are_none() {
        assert_eq!(eval(&SVal::Unknown, &assignment([])), None);
        let call = SVal::Call {
            func: "sqrt".into(),
            args: vec![SVal::Int(4)],
        };
        assert_eq!(eval(&call, &assignment([])), None);
    }

    fn cassign<I: IntoIterator<Item = (u32, CVal)>>(pairs: I) -> CAssignment {
        pairs.into_iter().collect()
    }

    #[test]
    fn ceval_mirrors_integer_semantics() {
        let e = SVal::binary(
            BinOp::Shl,
            SVal::Int(1),
            SVal::binary(BinOp::Add, SVal::Int(62), x()),
        );
        // shift counts are masked `& 63`, as in the simulator
        assert_eq!(
            ceval(&e, &cassign([(1, CVal::Int(3))])),
            Some(CVal::Int(1 << 1))
        );
        let div = SVal::binary(BinOp::Div, SVal::Int(1), x());
        assert_eq!(ceval(&div, &cassign([(1, CVal::Int(0))])), None);
    }

    #[test]
    fn ceval_float_contamination() {
        let e = SVal::binary(BinOp::Mul, SVal::Int(3), x());
        assert_eq!(
            ceval(&e, &cassign([(1, CVal::Float(1.5))])),
            Some(CVal::Float(4.5))
        );
        // float comparison yields an int
        let cmp = SVal::binary(BinOp::Gt, x(), SVal::float(2.0));
        assert_eq!(
            ceval(&cmp, &cassign([(1, CVal::Float(2.5))])),
            Some(CVal::Int(1))
        );
        // float division by zero is IEEE, not a fault
        let div = SVal::binary(BinOp::Div, SVal::float(1.0), SVal::float(0.0));
        assert_eq!(ceval(&div, &cassign([])), Some(CVal::Float(f64::INFINITY)));
    }

    #[test]
    fn ceval_math_builtins() {
        let call = SVal::Call {
            func: "sqrt".into(),
            args: vec![SVal::Int(4)],
        };
        assert_eq!(ceval(&call, &cassign([])), Some(CVal::Float(2.0)));
        let call = SVal::Call {
            func: "pow".into(),
            args: vec![SVal::float(2.0), SVal::Int(10)],
        };
        assert_eq!(ceval(&call, &cassign([])), Some(CVal::Float(1024.0)));
        // stateful builtins have no pure denotation
        let call = SVal::Call {
            func: "rand".into(),
            args: vec![],
        };
        assert_eq!(ceval(&call, &cassign([])), None);
    }

    #[test]
    fn ceval_ite_selects_the_taken_arm_lazily() {
        // `out = p > 2 ? a : b` with a symbolic condition becomes
        // `ite(p > 2, a, b)`; the concrete evaluator must pick the arm the
        // simulator would execute.
        let ite = |cond, t, e| SVal::Call {
            func: "ite".into(),
            args: vec![cond, t, e],
        };
        let cond = SVal::binary(BinOp::Gt, x(), SVal::Int(2));
        let e = ite(cond.clone(), SVal::float(1.5), SVal::Int(9));
        assert_eq!(
            ceval(&e, &cassign([(1, CVal::Int(7))])),
            Some(CVal::Float(1.5))
        );
        assert_eq!(ceval(&e, &cassign([(1, CVal::Int(0))])), Some(CVal::Int(9)));
        // Only the taken arm is evaluated, as at runtime: an unevaluable
        // untaken arm does not poison the result.
        let lazy = ite(cond, SVal::Int(4), SVal::Unknown);
        assert_eq!(
            ceval(&lazy, &cassign([(1, CVal::Int(7))])),
            Some(CVal::Int(4))
        );
        assert_eq!(ceval(&lazy, &cassign([(1, CVal::Int(0))])), None);
    }

    #[test]
    fn same_number_is_numeric_not_bitwise() {
        assert!(CVal::Float(0.0).same_number(CVal::Float(-0.0)));
        assert!(CVal::Float(f64::NAN).same_number(CVal::Float(f64::NAN)));
        assert!(CVal::Int(2).same_number(CVal::Float(2.0)));
        assert!(!CVal::Int(2).same_number(CVal::Int(3)));
    }
}
