//! Engine error type.

use std::fmt;

use crate::checkpoint::CheckpointError;

/// Errors reported by the symbolic execution engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The requested entry function does not exist or has no body.
    UnknownFunction(String),
    /// The number of parameter bindings does not match the signature.
    BindingArity {
        /// Entry function name.
        function: String,
        /// Parameters the function declares.
        expected: usize,
        /// Bindings supplied by the caller.
        got: usize,
    },
    /// A binding is incompatible with the parameter's type (e.g. a pointer
    /// binding for a scalar parameter).
    BindingType {
        /// Entry function name.
        function: String,
        /// Zero-based parameter index.
        index: usize,
        /// Why the binding does not fit.
        reason: String,
    },
    /// The exploration exceeded its path budget before finishing.
    ///
    /// Partial results are still available on the [`crate::Exploration`];
    /// this error is only returned when the caller opted into strict
    /// budgeting.
    PathBudgetExhausted {
        /// The configured budget.
        budget: usize,
    },
    /// A resume snapshot was rejected (stale, truncated, corrupt, or
    /// written for a different analysis). The run never starts — a bad
    /// snapshot must not produce a silently wrong result.
    Checkpoint(CheckpointError),
    /// Two different secret sources have the same id: their symbol keys
    /// share a 64-bit digest. The run stops rather than let one source
    /// stand for two secrets.
    SourceCollision {
        /// The shared id.
        id: u64,
        /// The key already recorded under `id`.
        first: String,
        /// The key that arrived second.
        second: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownFunction(name) => {
                write!(f, "no function definition named `{name}`")
            }
            EngineError::BindingArity {
                function,
                expected,
                got,
            } => write!(
                f,
                "`{function}` declares {expected} parameter(s) but {got} binding(s) were given"
            ),
            EngineError::BindingType {
                function,
                index,
                reason,
            } => write!(
                f,
                "binding for parameter {index} of `{function}` is invalid: {reason}"
            ),
            EngineError::PathBudgetExhausted { budget } => {
                write!(f, "exploration exceeded the path budget of {budget}")
            }
            EngineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            EngineError::SourceCollision { id, first, second } => write!(
                f,
                "secret sources `{first}` and `{second}` share the id {id:016x}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EngineError::UnknownFunction("f".into())
            .to_string()
            .contains("`f`"));
        let err = EngineError::BindingArity {
            function: "g".into(),
            expected: 2,
            got: 1,
        };
        assert!(err.to_string().contains("2 parameter(s)"));
    }
}
