//! Static plan analysis by abstract interpretation.
//!
//! Two cooperating passes over a processing tree (and, because they
//! read each node's operator from `oorq_pt::node_op` as lowering does,
//! over the physical plan it lowers to):
//!
//! - [`bounds`] — the interval domain: sound `[lo, hi]` bounds on every
//!   operator's cardinality, page accesses, fixpoint pass count, and
//!   weighted cost, with directed rounding so float arithmetic can never
//!   round a true bound away;
//! - [`dominance`] — provable candidate pruning: result-preserving
//!   toggles whose cost intervals do not overlap.
//!
//! [`check_observed`] closes the loop at runtime: every observed
//! per-operator counter must lie inside its static interval
//! (`AB001`–`AB003`), which debug builds of the executor assert after
//! every query.

pub mod bounds;
pub mod check;
pub mod dominance;
pub mod interval;

pub use bounds::{Analysis, Analyzer, AnalyzerConfig, FeatBounds, NodeBounds};
pub use check::{check_observed, ObservedFix, ObservedOp};
pub use dominance::{equivalent_toggle, proven_worse};
pub use interval::Interval;
