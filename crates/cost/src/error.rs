//! Cost-model errors.

use std::fmt;

use oorq_pt::PtError;

/// Errors raised during cost estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// A temporary's shape was not registered with the model.
    UnknownTemp(String),
    /// A temporary was addressed through an `Entity` leaf.
    TempAsEntity(String),
    /// A needed statistic is missing.
    MissingStats,
    /// Structural error in the plan.
    Pt(PtError),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::UnknownTemp(n) => write!(f, "unknown temporary `{n}`"),
            CostError::TempAsEntity(n) => write!(f, "temporary `{n}` used as entity"),
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
