//! The cost-controlled optimizer for object-oriented recursive queries —
//! the paper's primary contribution (§4).
//!
//! Optimization proceeds through four steps, each with its own
//! *optimization granule* (Figure 6):
//!
//! | Procedure     | Granularity              | Strategy                      | PT nodes |
//! |---------------|--------------------------|-------------------------------|----------|
//! | `rewrite`     | the entire query (graph) | irrevocable                   | Fix, Union |
//! | `translate`   | one arc                  | cost-based                    | IJ, PIJ  |
//! | `generatePT`  | one predicate node       | cost-based (generative)       | EJ, Sel  |
//! | `transformPT` | the entire query (PT)    | cost-based (transformational) | none     |
//!
//! The key departure from deductive-DB optimizers: pushing selective
//! operations (selections *and joins*) through recursion is decided only
//! after a complete plan exists, by comparing the costs of the pushed
//! and unpushed plans — because in an object model the pushed predicate
//! may embed an expensive path expression or method call.

mod decisions;
mod error;
mod generate;
mod optimizer;
mod rewrite;
mod trace;
mod transform;
mod translate;

pub use decisions::{Decisions, Examined, Outcome};
pub use error::OptError;
pub use generate::{generate_pt, rewrite_expr, Candidate, SpjStrategy};
pub use optimizer::{Optimized, Optimizer, OptimizerConfig};
pub use rewrite::{fixpoint_action, fixpoint_recursion, rewrite, union_action};
pub use trace::{OptTrace, Step, StepTrace, StrategyKind};
pub use transform::{
    best_selection, can_push, filter_action, neighbours, push_join_action, rand_optimize,
    rand_optimize_with, FixInfo, MoveFn, PushStrategy, RandConfig, RandOutcome,
};
pub use translate::{collapse_alternatives, translate_arc, ArcChain, BasePlan, ChainOp};

#[cfg(test)]
mod tests;
