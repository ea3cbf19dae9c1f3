//! Query-graph errors.

use std::fmt;

/// Errors raised while building, typing or normalizing query graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A name node references an unknown class/relation.
    UnknownName(String),
    /// A class does not have the requested attribute.
    UnknownAttribute {
        /// Class name.
        class: String,
        /// Attribute name.
        attr: String,
    },
    /// A tuple type does not have the requested field.
    UnknownField(String),
    /// A tree-label step does not match the labelled type.
    BadLabelStep {
        /// The step (attribute name or `NIL`).
        step: String,
        /// The type it was applied to.
        ty: String,
    },
    /// An expression references a variable bound by no arc.
    UnboundVariable(String),
    /// Two arcs of one predicate node bind the same variable.
    DuplicateVariable(String),
    /// A derived name is consumed but never produced.
    UndefinedDerived(String),
    /// A derived name's type depends on itself (recursion through
    /// derived names; recursive definitions must go through a declared
    /// view relation, which fixes the type).
    CyclicTyping(String),
    /// The query graph has no predicate node producing the answer.
    NoAnswer(String),
    /// A view was referenced but not registered.
    UnknownView(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownName(n) => write!(f, "unknown name node `{n}`"),
            QueryError::UnknownAttribute { class, attr } => {
                write!(f, "class `{class}` has no attribute `{attr}`")
            }
            QueryError::UnknownField(n) => write!(f, "unknown tuple field `{n}`"),
            QueryError::BadLabelStep { step, ty } => {
                write!(f, "tree-label step `{step}` does not apply to type {ty}")
            }
            QueryError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            QueryError::DuplicateVariable(v) => write!(f, "variable `{v}` bound twice"),
            QueryError::UndefinedDerived(n) => {
                write!(f, "derived name `{n}` is consumed but never produced")
            }
            QueryError::CyclicTyping(n) => {
                write!(f, "the type of derived name `{n}` depends on itself")
            }
            QueryError::NoAnswer(n) => write!(f, "no predicate node produces the answer `{n}`"),
            QueryError::UnknownView(v) => write!(f, "view `{v}` has no registered definition"),
        }
    }
}

impl std::error::Error for QueryError {}
