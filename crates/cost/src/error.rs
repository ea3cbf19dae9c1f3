//! Cost-model errors.

use std::fmt;

use oorq_pt::PtError;

/// Errors raised during cost estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// A needed statistic is missing.
    MissingStats,
    /// The plan does not resolve (malformed fixpoint, unknown temporary,
    /// ill-typed column, ...).
    Pt(PtError),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::MissingStats => write!(f, "missing statistics"),
            CostError::Pt(e) => write!(f, "plan structure: {e}"),
        }
    }
}

impl std::error::Error for CostError {}

impl From<PtError> for CostError {
    fn from(e: PtError) -> Self {
        CostError::Pt(e)
    }
}
