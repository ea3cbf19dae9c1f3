//! The execution engine: a streaming physical-operator pipeline with
//! honest page-I/O and CPU accounting (validating the cost model of
//! `oorq-cost`), plus a naive reference evaluator for query graphs used
//! as a correctness oracle.
//!
//! Plans are lowered (`oorq_pt::lower`) to pull-based operators that hand
//! up a chunk of rows per call, their expressions bound to row slots
//! once (and a slot-comparing join or filter predicate to the outer row
//! once): entity/temporary scans lending out one fetched page at a time,
//! index selections, filters, projections, implicit joins (dereferences),
//! path-index lookups, nested-loop joins with honest inner rescans,
//! unions, and **semi-naive fixpoints** with materialized accumulator and
//! delta temporaries (the pipeline breakers), whose recursive leg replays
//! the operands no pass can change. Every operator tallies its rows,
//! page/index I/O, evaluations, method calls and wall time ([`OpReport`]),
//! joinable against the cost model's per-node predictions.

mod error;
mod eval;
mod executor;
mod explain;
mod methods;
mod pipeline;
mod reference;
mod rowset;

pub use error::ExecError;
pub use eval::Batch;
pub use executor::{op_kind, ExecConfig, ExecReport, ExecState, Executor};
pub use explain::explain_analyze;
pub use methods::{MethodFn, MethodRegistry};
pub use pipeline::{FixDeltaCurve, OpReport};
pub use reference::eval_query_graph;

#[cfg(test)]
mod tests;
