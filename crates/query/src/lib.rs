//! Query graphs for object-oriented recursive queries (§2 of the paper).
//!
//! Queries are represented as *query graphs*: sets of `(Name ← p)` pairs
//! where each predicate node `p = SPJ(In, pred, outproj)` consumes name
//! nodes through arcs labelled by *tree labels* — tree-shaped adornments
//! binding variables to the needed sub-objects. Recursive views (like the
//! paper's `Influencer`) are ordinary sets of predicate nodes producing
//! the same relation name; the optimizer's `rewrite` step later makes the
//! `Union` and `Fix` operators explicit.

mod error;
mod expr;
mod graph;
mod label;
pub mod paper;
pub mod parse;

pub use error::QueryError;
pub use expr::{bind_path, CmpOp, Expr, Literal};
pub use graph::{expr_type, GraphTerm, NameRef, QArc, QueryGraph, SpjNode};
pub use label::{TreeChild, TreeLabel};
pub use parse::{parse_query, ParseError};

#[cfg(test)]
mod tests;
