//! Processing trees (PTs): the execution-plan algebra of §3.1, its one
//! node numbering, and the lowering pass to physical operators.
//!
//! PTs refer to *physical* entities, so the impact of every optimizer
//! action on the plan cost is directly computable — the paper's central
//! methodological point. Interior nodes are operators (`Sel`, `Proj`,
//! `IJ`, `PIJ`, `EJ`, `Union`, `Fix`); leaves are atomic entities of the
//! physical schema or temporary files. The §4.1 transformation actions
//! (`action: F | constraint → G`) are functions over [`Pt`] in
//! `oorq_core`, each documenting its rule; the paths [`subtrees`] lists
//! are where such a function rewrites ([`Pt::replace_at`]).

mod analysis;
mod error;
pub mod fingerprint;
mod node;
pub mod phys;
mod resolved;

pub use analysis::propagated_columns;
pub use error::PtError;
pub use fingerprint::{fnv64_str, Fnv64, FNV_OFFSET, FNV_PRIME};
pub use node::{
    pij_out_classes, subtrees, type_of_column_expr, AccessMethod, IjStep, JoinAlgo, Preorder, Pt,
    PtDisplay, PtEnv,
};
pub use phys::{
    applicable_join_indexes, applicable_sel_index, fix_recursive_nodes, lit_value, lower,
    lower_with, node_ids, node_op, rescannable, IndexProbe, NodeOp, OpKind, OpMeta, ParallelSpec,
    PhysOp, PhysPlan,
};
pub use resolved::{resolve, resolve_each, Cols, Node};

#[cfg(test)]
mod tests;
