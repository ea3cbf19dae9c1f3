//! Deterministic synthetic data generators for the paper's workloads:
//! the Figure 1 music schema (master chains, nested works/instruments)
//! and an engineering parts hierarchy (the \[CS90\] motivation).
//!
//! Every generator is seeded and parameterizes exactly the statistics
//! the cost-controlled optimizer's decisions depend on: chain depth
//! (fixpoint iterations), fan-outs (path-expression cost), selectivities
//! and physical placement (clustering).

pub mod chain;
pub mod music;
pub mod parts;

pub use chain::{
    chain_query, closure_catalog, selective_tail_query, ChainConfig, ChainDb, ClosureConfig,
    ClosureDb, CLOSURE_TEXT,
};
pub use music::{MusicConfig, MusicDb};
pub use parts::{parts_catalog, parts_query, PartsConfig, PartsDb, CONTAINS_VIEW};

#[cfg(test)]
mod tests;
