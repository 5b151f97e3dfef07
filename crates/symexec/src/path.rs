//! The path condition π.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::value::SVal;

/// One recorded branch assumption: `cond` was assumed non-zero (`true`) or
/// zero (`false`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assumption {
    /// The branch condition's symbolic value.
    pub cond: SVal,
    /// The direction taken.
    pub taken: bool,
}

impl fmt::Display for Assumption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.taken {
            write!(f, "{}", self.cond)
        } else {
            write!(f, "!({})", self.cond)
        }
    }
}

/// The path condition π: the conjunction of all branch assumptions on the
/// current path (§VI-B). Starts as `True` and grows at each fork.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PathCondition {
    assumptions: Vec<Assumption>,
}

impl PathCondition {
    /// The empty (always-true) path condition.
    pub fn new() -> Self {
        PathCondition::default()
    }

    /// Records a new assumption.
    pub fn push(&mut self, cond: SVal, taken: bool) {
        self.assumptions.push(Assumption { cond, taken });
    }

    /// Keeps the first `len` assumptions (the common prefix of merged
    /// paths).
    pub fn truncate(&mut self, len: usize) {
        self.assumptions.truncate(len);
    }

    /// The recorded assumptions, oldest first.
    pub fn assumptions(&self) -> &[Assumption] {
        &self.assumptions
    }

    /// Number of assumptions.
    pub fn len(&self) -> usize {
        self.assumptions.len()
    }

    /// Whether π is still `True`.
    pub fn is_empty(&self) -> bool {
        self.assumptions.is_empty()
    }
}

impl fmt::Display for PathCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.assumptions.is_empty() {
            return write!(f, "True");
        }
        for (i, a) in self.assumptions.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Symbol;
    use minic::ast::BinOp;

    #[test]
    fn starts_true() {
        let pi = PathCondition::new();
        assert!(pi.is_empty());
        assert_eq!(pi.to_string(), "True");
    }

    #[test]
    fn renders_conjunction() {
        let mut pi = PathCondition::new();
        let s = SVal::Sym(Symbol::new(0, "s"));
        pi.push(SVal::binary(BinOp::Eq, s.clone(), SVal::Int(0)), true);
        pi.push(SVal::binary(BinOp::Lt, s, SVal::Int(9)), false);
        assert_eq!(pi.to_string(), "($s == 0) ∧ !(($s < 9))");
        assert_eq!(pi.len(), 2);
    }
}
