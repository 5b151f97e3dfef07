//! Concrete evaluation of symbolic expressions under a full assignment.
//!
//! [`ceval`] mirrors the SGX simulator's semantics (`sgx_sim::interp`) —
//! wrapping integer arithmetic, `& 63` shift masks, float contamination,
//! and the same math builtins — so a symbolic value replayed under a
//! concrete assignment can be compared against what the simulator
//! actually computed. It is the oracle for the simplifier, for the
//! feasibility tiers (a concretely true guard must never be refuted) and
//! for the differential oracle's cross-interpreter pre-flight.

use std::collections::BTreeMap;

use minic::ast::{BinOp, UnOp};

use crate::simplify::fold_ints;
use crate::value::SVal;

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
        SVal::Ite { cond, then, els } => {
            // Only the taken arm is evaluated, as the simulator runs only
            // the taken side, so the untaken arm may be unevaluable
            // without disagreement.
            let chosen = if ceval(cond, assignment)?.truthy() {
                then
            } else {
                els
            };
            ceval(chosen, assignment)
        }
        SVal::Call { func, args } => {
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

    fn cassign<I: IntoIterator<Item = (u32, CVal)>>(pairs: I) -> CAssignment {
        pairs.into_iter().collect()
    }

    #[test]
    fn ceval_wraps_and_is_partial() {
        let e = SVal::binary(BinOp::Add, x(), SVal::Int(10));
        assert_eq!(
            ceval(&e, &cassign([(1, CVal::Int(i64::MAX - 9))])),
            Some(CVal::Int(i64::MIN))
        );
        // Unassigned symbols and unknowns denote no number.
        assert_eq!(ceval(&x(), &cassign([])), None);
        assert_eq!(ceval(&SVal::Unknown, &cassign([])), None);
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
        let ite = SVal::ite;
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
