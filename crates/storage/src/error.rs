//! Storage errors.

use std::fmt;

use oorq_schema::ClassId;

use crate::physical::EntityId;
use crate::value::Oid;

/// Errors raised by the object store.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// Wrong number of values supplied for a record.
    ArityMismatch {
        /// Where it happened.
        context: String,
        /// Expected value count.
        expected: usize,
        /// Supplied value count.
        got: usize,
    },
    /// An oid does not denote a stored object.
    DanglingOid(Oid),
    /// An entity id is unknown or of the wrong kind for the operation.
    BadEntity(EntityId),
    /// Operation requires a temporary entity.
    NotTemporary(EntityId),
    /// A writer panicked while appending to the temporary: it takes no
    /// rows until it is truncated.
    PoisonedTemporary(EntityId),
    /// A class has no home entity (should not happen on a well-formed DB).
    NoHome(ClassId),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch {
                context,
                expected,
                got,
            } => {
                write!(f, "{context}: expected {expected} values, got {got}")
            }
            StorageError::DanglingOid(o) => write!(f, "dangling oid {o}"),
            StorageError::BadEntity(e) => write!(f, "bad entity {e}"),
            StorageError::NotTemporary(e) => write!(f, "entity {e} is not a temporary"),
            StorageError::PoisonedTemporary(e) => {
                write!(f, "a writer of temporary {e} panicked: truncate it first")
            }
            StorageError::NoHome(c) => write!(f, "class {c} has no home entity"),
        }
    }
}

impl std::error::Error for StorageError {}
