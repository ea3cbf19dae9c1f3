//! Static verification of query graphs and processing trees.
//!
//! Optimizers that transform complete plans (the paper's §4
//! `transformPT` and the randomized walks of §5) are only trustworthy
//! if every intermediate plan stays well-formed. This crate provides
//! the invariant checks:
//!
//! - [`lint_graph`] — the *graph pass*: tree-label binding discipline,
//!   name resolution against the catalog, recursion classification
//!   (linear / non-linear / unsafe), reachability and dead view cycles.
//!   It is the one check that admits a query graph: the optimizer runs
//!   it in every build and refuses a graph it reports an error on.
//! - [`verify_pt`] — the *plan pass*: fixpoint shape, implicit-join
//!   steps against the physical schema, projections vs. columns
//!   consumed upstream, expression typing, temporary scoping.
//! - [`lint_drift`] — the *drift pass*: per-operator predicted vs
//!   observed accounting, flagging estimates that drift beyond
//!   tolerance (`CX*`); the server evicts a plan on it when its
//!   statistics go stale.
//!
//! Every check has a stable code ([`LintCode`],
//! `QG*`/`PT*`/`CX*`/`PX*`/`AB*`) and
//! a fixed severity; a [`LintReport`] is clean when no error-severity
//! diagnostic fired. The optimizer admits a normalized query graph with
//! the graph pass; the executor checks a plan and its lowering with the
//! plan and physical passes at its one boundary (`Executor::prepare`),
//! in every build.

mod diag;
mod drift;
mod graph;
mod phys;
mod plan;

pub use diag::{Diagnostic, LintCode, LintReport, Severity};
pub use drift::{lint_drift, DriftTolerance, ObservedOp};
pub use graph::lint_graph;
pub use phys::verify_phys;
pub use plan::verify_pt;

/// Record every warning and error of a report as a structured trace
/// event (cat `lint`, name `violation`) carrying the stable code,
/// severity, location and message, plus a `lint.violations` counter
/// bump. A note is not a violation and is not recorded, so a report of
/// notes only records nothing. A no-op on a disabled recorder.
pub fn record_report(obs: &oorq_obs::Recorder, stage: &str, report: &LintReport) {
    if !obs.enabled() {
        return;
    }
    for d in report
        .diagnostics
        .iter()
        .filter(|d| d.severity() != Severity::Note)
    {
        obs.event(
            "lint",
            "violation",
            vec![
                ("stage".into(), stage.into()),
                ("code".into(), d.code.code().into()),
                ("severity".into(), d.severity().to_string().into()),
                ("location".into(), d.location.clone().into()),
                ("message".into(), d.message.clone().into()),
            ],
        );
        obs.counter_add("lint.violations", 1.0);
    }
}

#[cfg(test)]
mod tests;
