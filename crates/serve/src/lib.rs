//! The multi-session serving layer: concurrent read sessions over
//! copy-on-write database snapshots and a fingerprint-keyed LRU plan
//! cache invalidated by the CX00x drift lints.
//!
//! This is the amortization layer the paper's premise asks for:
//! cost-controlled optimization is worth its price when an optimized
//! plan is reused across many requests. [`Server`] holds the shared
//! state (database, indexes, statistics, plan cache, `serve.*`
//! metrics); [`Session`] is one client's view — a private snapshot
//! with private buffer accounting, so N sessions return byte-identical
//! answers to a single-session replay while sharing every cached plan.

mod cache;
mod server;

pub use cache::{CacheOutcome, CachedPlan, PlanCache};
pub use server::{canonical_text, query_key, Answer, ServeError, Server, ServerConfig, Session};

#[cfg(test)]
mod tests;
