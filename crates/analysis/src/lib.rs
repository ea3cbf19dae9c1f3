//! Static plan analysis by abstract interpretation.
//!
//! The analyzer bounds what the executor counts and prices nothing:
//! [`bounds`] derives sound `[lo, hi]` intervals on every operator's
//! rows, data pages, index reads, writes and fixpoint passes, over a
//! processing tree (and, because it reads each node's operator from
//! `oorq_pt::node_op` as lowering does, over the physical plan it lowers
//! to), with directed rounding so float arithmetic can never round a
//! true bound away.
//!
//! [`check_observed`] closes the loop at runtime: every observed
//! per-operator counter must lie inside its static interval
//! (`AB001`–`AB003`), which debug builds of the executor assert after
//! every query.

pub mod bounds;
pub mod check;
pub mod interval;

pub use bounds::{Analysis, Analyzer, AnalyzerConfig, FeatBounds, NodeBounds};
pub use check::{check_observed, ObservedFix, ObservedOp};
pub use interval::Interval;
