//! The calibration-drift pass (`CX*`): predicted vs observed
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
//! on the other side. A second entry point ([`lint_fix_drift`]) checks
//! the *fixpoint profile* predictions: `CX005` when a modeled iteration
//! count drifts from the observed semi-naive pass count, `CX006` when
//! the modeled delta mass drifts from the observed curve's total.
//!
//! Drift lints are warnings, not errors: an estimate can be off without
//! the plan being wrong. They exist so the calibration harness (and
//! `reproduce calibrate`) can gate on systematic mis-weighting instead
//! of silently absorbing it.

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
/// flag calibration drift (`CX001`–`CX004`).
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

/// Check the model's spill prediction against the run (`CX007`). The
/// breakdown's breaker write footprints against the memory budget say
/// how many breaker pages the model expects to be forced out of
/// residency; the buffer manager's spill-eviction counter says how many
/// actually were. Disagreement beyond tolerance means the residency
/// model put the plan on the wrong side of the spill cliff — the exact
/// mis-prediction the spill calibration harness gates on. A budget of
/// `0` (unbounded) never fires.
pub fn lint_spill_drift(
    breakdown: &[NodeCost],
    budget_pages: u64,
    observed_spill_evictions: f64,
    tol: DriftTolerance,
) -> LintReport {
    let mut report = LintReport::new();
    if budget_pages == 0 {
        return report;
    }
    let b = budget_pages as f64;
    let predicted_excess: f64 = breakdown
        .iter()
        .map(|l| (l.feat.write_pages - b).max(0.0))
        .sum();
    if tol.drifted(predicted_excess, observed_spill_evictions.max(0.0)) {
        report.push(
            LintCode::SpillDrift,
            "plan",
            format!(
                "modeled {:.0} breaker pages past the {budget_pages}-page budget, \
                 observed {:.0} spill evictions",
                predicted_excess, observed_spill_evictions
            ),
        );
    }
    report
}

/// One executed fixpoint's observed delta curve, summarised by the
/// caller: `iterations` is the recursive-side pass count (curve length
/// minus the seed entry), `mass` the curve's total delta rows.
#[derive(Debug, Clone)]
pub struct ObservedFix {
    /// Pre-order PT node index of the `Fix` node (the join key shared
    /// with [`NodeCost::node`]).
    pub pt_node: usize,
    /// The fixpoint's temporary, for diagnostics.
    pub temp: String,
    /// Observed semi-naive pass count.
    pub iterations: f64,
    /// Observed total delta mass (sum over the curve).
    pub mass: f64,
}

/// Join the `Fix` lines of a plan-cost breakdown (those carrying a
/// modeled [`oorq_cost::FixCurve`]) against observed fixpoint curves
/// and flag profile drift: `CX005` for iteration counts, `CX006` for
/// delta mass.
///
/// Iteration counts are small integers, so their check overrides the
/// magnitude floor with a floor of 2 — a modeled 2-pass fixpoint that
/// runs a dozen passes is exactly the drift the feedback loop exists to
/// catch — while the mass check uses the caller's tolerance as-is.
pub fn lint_fix_drift(
    breakdown: &[NodeCost],
    observed: &[ObservedFix],
    tol: DriftTolerance,
) -> LintReport {
    let mut report = LintReport::new();
    let iter_tol = DriftTolerance { floor: 2.0, ..tol };
    for line in breakdown {
        let (Some(node), Some(curve)) = (line.node, line.fix.as_ref()) else {
            continue;
        };
        let Some(obs) = observed.iter().find(|o| o.pt_node == node) else {
            continue;
        };
        let loc = format!("node {} (Fix({}))", node, obs.temp);
        if iter_tol.drifted(curve.iterations, obs.iterations) {
            report.push(
                LintCode::FixIterationsDrift,
                loc.clone(),
                format!(
                    "modeled {:.0} fixpoint passes, observed {:.0}",
                    curve.iterations, obs.iterations
                ),
            );
        }
        if tol.drifted(curve.mass(), obs.mass) {
            report.push(
                LintCode::FixDeltaMassDrift,
                loc,
                format!(
                    "modeled {:.1} total delta rows, observed {:.1}",
                    curve.mass(),
                    obs.mass
                ),
            );
        }
    }
    report
}
