//! Execution errors.

use std::fmt;

use oorq_query::QueryError;
use oorq_storage::StorageError;

/// Errors raised by the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An expression referenced a column the input does not produce.
    UnknownColumn(String),
    /// An attribute name does not exist on the dereferenced class.
    UnknownAttribute(String),
    /// A computed attribute has no registered method implementation.
    MissingMethod(String),
    /// A value had the wrong shape for the operation.
    BadValue(String),
    /// An index id does not resolve to a built index structure.
    MissingIndex,
    /// The two sides of a union produce different column sets.
    UnionMismatch,
    /// A `Fix` body is not a union of a base and a recursive part.
    BadFixpoint(String),
    /// The fixpoint did not converge within the iteration bound.
    FixpointDiverged(String),
    /// The debug-mode plan verifier rejected the plan before execution.
    PlanLint(String),
    /// Lowering to a physical plan failed (the plan is ill-formed in a
    /// way the runtime vocabulary has no specific error for).
    BadPlan(String),
    /// Storage-level failure.
    Storage(StorageError),
    /// Query-graph failure (reference evaluator).
    Query(QueryError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            ExecError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            ExecError::MissingMethod(m) => write!(f, "no method implementation for `{m}`"),
            ExecError::BadValue(m) => write!(f, "bad value: {m}"),
            ExecError::MissingIndex => write!(f, "index structure not built"),
            ExecError::UnionMismatch => write!(f, "union operands produce different columns"),
            ExecError::BadFixpoint(m) => write!(f, "bad fixpoint: {m}"),
            ExecError::FixpointDiverged(t) => {
                write!(f, "fixpoint over `{t}` exceeded the iteration bound")
            }
            ExecError::PlanLint(d) => write!(f, "plan failed verification:\n{d}"),
            ExecError::BadPlan(m) => write!(f, "cannot lower plan: {m}"),
            ExecError::Storage(e) => write!(f, "storage: {e}"),
            ExecError::Query(e) => write!(f, "query: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<QueryError> for ExecError {
    fn from(e: QueryError) -> Self {
        ExecError::Query(e)
    }
}
