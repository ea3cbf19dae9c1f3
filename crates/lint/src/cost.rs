//! The breaker-budget pass: a cost estimate's materializing breakers
//! against the executor's memory budget.

use crate::diag::{LintCode, LintReport};

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
