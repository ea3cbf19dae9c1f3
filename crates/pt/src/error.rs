//! Processing-tree errors.

use std::fmt;

use oorq_query::QueryError;
use oorq_storage::{EntityId, IndexId};

/// Errors raised while manipulating processing trees.
#[derive(Debug, Clone, PartialEq)]
pub enum PtError {
    /// A child-index path pointed outside a node's arity.
    BadPath {
        /// Offending index.
        index: usize,
        /// The node's arity.
        arity: usize,
    },
    /// An `Entity` leaf names an id the physical schema does not hold.
    UnknownEntity(EntityId),
    /// A temporary was referenced through an `Entity` leaf.
    TempAsEntity(String),
    /// A `Temp` leaf references an unregistered temporary.
    UnknownTemp(String),
    /// `IJ`'s attribute does not reference a class.
    NotAReference(String),
    /// A `Sel^idx` names an index that cannot probe its predicate and
    /// input.
    NoProbe {
        /// The index named.
        index: IndexId,
        /// Why it cannot serve the probe.
        why: &'static str,
    },
    /// A `PIJ` node names an index that is not a path index.
    NotAPathIndex,
    /// A `PIJ` node binds more outputs than the path has steps.
    PathIndexArity {
        /// Outputs requested.
        wanted: usize,
    },
    /// A `Fix` body is not a `Union`.
    FixBodyNotUnion,
    /// Neither side of a `Fix` body union references the temporary.
    FixNotRecursive(String),
    /// Union (or fixpoint base/recursive) sides disagree on columns.
    UnionShapeMismatch,
    /// Column-expression typing failed.
    Typing(QueryError),
}

impl fmt::Display for PtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtError::BadPath { index, arity } => {
                write!(f, "child index {index} out of range (arity {arity})")
            }
            PtError::UnknownEntity(id) => {
                write!(f, "entity id #{} is not in the physical schema", id.0)
            }
            PtError::TempAsEntity(n) => write!(f, "temporary `{n}` used as an entity leaf"),
            PtError::UnknownTemp(n) => write!(f, "temporary `{n}` is not defined in this scope"),
            PtError::NotAReference(a) => {
                write!(f, "attribute `{a}` does not reference a class")
            }
            PtError::NoProbe { index, why } => {
                write!(f, "Sel^idx cannot probe index #{}: {why}", index.0)
            }
            PtError::NotAPathIndex => write!(f, "PIJ names a non-path index"),
            PtError::PathIndexArity { wanted } => {
                write!(f, "PIJ binds {wanted} outputs but the path is shorter")
            }
            PtError::FixBodyNotUnion => write!(f, "Fix body must be a Union"),
            PtError::FixNotRecursive(t) => {
                write!(f, "neither union side references `{t}`")
            }
            PtError::UnionShapeMismatch => {
                write!(f, "union sides bind different columns")
            }
            PtError::Typing(e) => write!(f, "typing: {e}"),
        }
    }
}

impl std::error::Error for PtError {}

impl From<QueryError> for PtError {
    fn from(e: QueryError) -> Self {
        PtError::Typing(e)
    }
}
