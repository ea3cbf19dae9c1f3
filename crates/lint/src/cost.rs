//! The cost-model sanity pass: estimates must be finite, non-negative,
//! and selections must not grow their inputs.

use oorq_cost::{CostModel, PlanCost};
use oorq_pt::Pt;

use crate::diag::{LintCode, LintReport};

/// Lint the cost estimate of a plan. Subtrees the model cannot price
/// (e.g. temporaries with no registered shape) are skipped, not
/// reported — pricing failures are the plan pass's business.
pub fn lint_plan_cost(model: &CostModel<'_>, pt: &Pt) -> LintReport {
    let Ok(pc) = model.cost(pt) else {
        return LintReport::new();
    };
    let mut report = lint_cost_figures(&pc);

    // Selectivity: a selection's output cardinality must not exceed its
    // input's. Compared on whole-subtree estimates so fixpoint context
    // is irrelevant; unpriceable subtrees are skipped.
    pt.visit(&mut |node| {
        if let Pt::Sel { input, .. } = node {
            if let (Ok(outer), Ok(inner)) = (model.cost(node), model.cost(input)) {
                lint_selection_rows(outer.rows, inner.rows, &mut report);
            }
        }
    });
    report
}

/// Check the computed figures of one estimate: the answer cardinality
/// and every cost component must be finite and non-negative (`CM001`,
/// `CM002`). Exposed separately from [`lint_plan_cost`] so the checks
/// are testable against hand-built figures — the estimator itself
/// clamps its arithmetic, so a live model reaches these arms only
/// through corrupt calibration inputs (e.g. a poisoned fitted-weight
/// file).
pub(crate) fn lint_cost_figures(pc: &PlanCost) -> LintReport {
    let mut report = LintReport::new();
    if !(pc.rows.is_finite() && pc.rows >= 0.0) {
        report.push(
            LintCode::NegativeCardinality,
            "plan",
            format!("answer cardinality estimate is {}", pc.rows),
        );
    }
    for part in [("io", pc.cost.io), ("cpu", pc.cost.cpu)] {
        if !(part.1.is_finite() && part.1 >= 0.0) {
            report.push(
                LintCode::NonFiniteCost,
                "plan",
                format!("total {} cost is {}", part.0, part.1),
            );
        }
    }
    for row in &pc.breakdown {
        if !row.rows.is_finite() || row.rows < 0.0 || !row.pages.is_finite() || row.pages < 0.0 {
            report.push(
                LintCode::NegativeCardinality,
                &row.label,
                format!("rows={} pages={}", row.rows, row.pages),
            );
        }
        if !row.cost.io.is_finite()
            || row.cost.io < 0.0
            || !row.cost.cpu.is_finite()
            || row.cost.cpu < 0.0
        {
            report.push(
                LintCode::NonFiniteCost,
                &row.label,
                format!("io={} cpu={}", row.cost.io, row.cost.cpu),
            );
        }
    }
    report
}

/// Flag materializing breakers whose estimated page footprint cannot
/// stay resident under the executor's breaker memory budget (`PX010`).
/// The plan still answers correctly — the buffer manager spills
/// least-recently-used temporary pages and re-fetches them — but the
/// breaker's re-reads then pay full page I/O instead of buffer hits.
/// Breakers are the breakdown lines that write temporary pages
/// (fixpoint accumulators, materialized nested-loop inners); a budget
/// of `0` (unbounded) never fires.
pub fn lint_breaker_budget(breakdown: &[oorq_cost::NodeCost], budget_pages: u64) -> LintReport {
    let mut report = LintReport::new();
    if budget_pages == 0 {
        return report;
    }
    let b = budget_pages as f64;
    for line in breakdown {
        if line.feat.write_pages > b {
            report.push(
                LintCode::BreakerOverBudget,
                &line.label,
                format!(
                    "breaker materializes {:.0} pages against a {budget_pages}-page \
                     memory budget; expect LRU spill and page re-reads",
                    line.feat.write_pages
                ),
            );
        }
    }
    report
}

/// Check one selection's whole-subtree row estimate against its
/// input's (`CM003`). The estimator clamps selectivities to `[0, 1]`,
/// so this arm firing on a live model means the clamp regressed.
pub(crate) fn lint_selection_rows(outer_rows: f64, inner_rows: f64, report: &mut LintReport) {
    if outer_rows > inner_rows * (1.0 + 1e-9) + 1e-9 {
        report.push(
            LintCode::SelectivityOutOfRange,
            "Sel",
            format!(
                "selection grows its input: {} rows from {}",
                outer_rows, inner_rows
            ),
        );
    }
}
