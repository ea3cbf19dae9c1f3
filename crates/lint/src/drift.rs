//! The drift pass (`CX*`): predicted vs observed
//! per-operator accounting.
//!
//! The estimator's clamps keep estimates *well-formed*; this pass
//! checks they are *honest*. Given the optimizer's per-node cost
//! breakdown and the executor's per-operator counters (summarised by
//! the caller into [`ObservedOp`] — this crate never depends on the
//! executor), it joins the two on the shared PT pre-order node index
//! and flags operators whose predicted/observed ratio drifts beyond
//! tolerance: `CX001` for page accesses, `CX002` for evaluations,
//! `CX003` for cardinality, and `CX004` for nodes with no counterpart
//! on the other side.
//!
//! Drift lints are warnings, not errors: an estimate can be off without
//! the plan being wrong. The server reads them to tell stale statistics
//! from honest model error.

use std::collections::BTreeMap;

use oorq_cost::NodeCost;

use crate::diag::{LintCode, LintReport};

/// One executed operator's observed totals, summarised by the caller
/// from the executor's exclusive per-operator report: `io` is every
/// page touched (reads + index node reads + writes), `cpu` every
/// evaluation (predicate evals + method calls), `rows` the rows
/// produced.
#[derive(Debug, Clone)]
pub struct ObservedOp {
    /// Pre-order PT node index (the join key shared with
    /// [`NodeCost::node`]).
    pub pt_node: usize,
    /// Operator label, for diagnostics.
    pub label: String,
    /// Observed page accesses.
    pub io: f64,
    /// Observed evaluations.
    pub cpu: f64,
    /// Observed output rows.
    pub rows: f64,
}

/// When is a predicted/observed pair "drifted"? Both knobs together:
/// the larger side must exceed `floor` (tiny absolute counts are never
/// drift — a 3-page prediction against 1 observed page is noise) *and*
/// the smoothed ratio `max/(min+1)` must exceed `ratio`.
#[derive(Debug, Clone, Copy)]
pub struct DriftTolerance {
    /// Maximum tolerated predicted/observed ratio (either direction).
    pub ratio: f64,
    /// Absolute magnitude below which drift is never flagged.
    pub floor: f64,
}

impl Default for DriftTolerance {
    fn default() -> Self {
        DriftTolerance {
            ratio: 4.0,
            floor: 16.0,
        }
    }
}

impl DriftTolerance {
    fn drifted(&self, pred: f64, obs: f64) -> bool {
        let pred = pred.max(0.0);
        let obs = obs.max(0.0);
        if pred.max(obs) < self.floor {
            return false;
        }
        // +1 smoothing keeps the ratio finite when one side is zero.
        (pred.max(obs) + 1.0) / (pred.min(obs) + 1.0) > self.ratio
    }
}

/// Join a plan-cost breakdown against observed per-operator totals and
/// flag drift (`CX001`–`CX004`).
///
/// Breakdown lines without a node id (synthetic lines) are skipped;
/// several observations of one PT node (an operator re-instantiated by
/// the lowering) are summed before comparison. Zero-cost *and*
/// zero-observation pairs never fire.
pub fn lint_drift(
    breakdown: &[NodeCost],
    observed: &[ObservedOp],
    tol: DriftTolerance,
) -> LintReport {
    let mut report = LintReport::new();

    let mut obs_by_node: BTreeMap<usize, ObservedOp> = BTreeMap::new();
    for o in observed {
        obs_by_node
            .entry(o.pt_node)
            .and_modify(|e| {
                e.io += o.io;
                e.cpu += o.cpu;
                e.rows += o.rows;
            })
            .or_insert_with(|| o.clone());
    }

    let mut matched: Vec<usize> = Vec::new();
    for line in breakdown {
        let Some(node) = line.node else { continue };
        let loc = format!("node {} ({})", node, line.label);
        let Some(obs) = obs_by_node.get(&node) else {
            if line.cost.io > 0.0 || line.cost.cpu > 0.0 {
                report.push(
                    LintCode::UnmatchedOperator,
                    loc,
                    "cost-breakdown line has no observed operator",
                );
            }
            continue;
        };
        matched.push(node);
        if tol.drifted(line.cost.io, obs.io) {
            report.push(
                LintCode::IoDrift,
                loc.clone(),
                format!(
                    "predicted {:.1} page accesses, observed {:.1}",
                    line.cost.io, obs.io
                ),
            );
        }
        if tol.drifted(line.cost.cpu, obs.cpu) {
            report.push(
                LintCode::CpuDrift,
                loc.clone(),
                format!(
                    "predicted {:.1} evaluations, observed {:.1}",
                    line.cost.cpu, obs.cpu
                ),
            );
        }
        if tol.drifted(line.rows, obs.rows) {
            report.push(
                LintCode::RowsDrift,
                loc,
                format!("predicted {:.1} rows, observed {:.1}", line.rows, obs.rows),
            );
        }
    }

    for node in matched {
        obs_by_node.remove(&node);
    }
    for (node, o) in obs_by_node {
        if o.io > 0.0 || o.cpu > 0.0 {
            report.push(
                LintCode::UnmatchedOperator,
                format!("node {} ({})", node, o.label),
                "observed operator has no cost-breakdown line",
            );
        }
    }

    report
}
