//! EXPLAIN ANALYZE: the physical plan tree with predicted and observed
//! figures inline per operator.
//!
//! Each line joins three layers by the pre-order PT node id
//! (`OpMeta::pt_node`): the cost model's per-node prediction
//! ([`oorq_cost::NodeCost`]), the §11 sound interval bounds
//! ([`oorq_analysis::NodeBounds`]), and the executor's exclusive
//! observed counters ([`crate::OpReport`]). A replayed operand's line
//! shows the passes it served and how many of them it replayed, so its
//! one pass of observed rows against the model's every-pass estimate
//! reads as a replay, not an estimation error. An observed counter that
//! escapes its sound interval is flagged with `!!` — on a debug build
//! the executor would already have asserted, so a flag in a release
//! run is the analyzer soundness contract failing in the field.

use oorq_analysis::Analysis;
use oorq_cost::NodeCost;
use oorq_pt::{PhysOp, PhysPlan};

use crate::executor::ExecReport;
use crate::pipeline::OpReport;

/// Render the EXPLAIN ANALYZE tree: one line per physical operator with
/// `est`/`obs` rows and pages, estimated cpu vs observed evals, and
/// exclusive wall time. `breakdown` is the cost model's per-node lines
/// (joined by PT node id), `analysis` the optional sound bounds, and
/// `report` the run whose `ops` were produced by the same plan.
pub fn explain_analyze(
    plan: &PhysPlan,
    breakdown: &[NodeCost],
    analysis: Option<&Analysis>,
    report: &ExecReport,
) -> String {
    let mut out = String::from(
        "EXPLAIN ANALYZE (est = cost model, obs = executed; \
         pages = reads+hits, !! = observed escaped the sound interval)\n",
    );
    walk(&plan.root, 0, breakdown, analysis, &report.ops, &mut out);
    out
}

/// The prediction for one PT node: the breakdown line whose `node`
/// matches.
fn predicted(breakdown: &[NodeCost], pt_node: usize) -> Option<&NodeCost> {
    breakdown.iter().find(|nc| nc.node == Some(pt_node))
}

fn walk(
    op: &PhysOp,
    depth: usize,
    breakdown: &[NodeCost],
    analysis: Option<&Analysis>,
    ops: &[OpReport],
    out: &mut String,
) {
    use std::fmt::Write as _;
    let meta = op.meta();
    let _ = write!(out, "{}#{} {}", "  ".repeat(depth), meta.id, meta.label);
    let obs = ops.get(meta.id).filter(|o| o.opens > 0);
    if let Some(o) = obs {
        let pages = o.page_reads + o.page_hits;
        let _ = write!(
            out,
            "  rows obs={} pages obs={} idx obs={} writes obs={}",
            o.rows_out, pages, o.index_reads, o.page_writes
        );
        if o.replays > 0 {
            // A replayed operand derives its rows on one pass and reads
            // them back on the others: `rows obs` is one pass's rows.
            let _ = write!(out, " passes={} replayed={}", o.opens, o.replays);
        }
        if o.temp_reads + o.spill_evictions > 0 {
            let _ = write!(
                out,
                " temp-reads={} spills={}",
                o.temp_reads, o.spill_evictions
            );
        }
    }
    if let Some(nc) = predicted(breakdown, meta.pt_node) {
        let _ = write!(
            out,
            "  est rows={:.1} io={:.1} cpu={:.1}",
            nc.rows, nc.cost.io, nc.cost.cpu
        );
    }
    if let Some(o) = obs {
        let _ = write!(out, "  wall={:.1}µs", o.wall_ns as f64 / 1_000.0);
        if let Some(nb) = analysis.and_then(|a| a.node(meta.pt_node)) {
            let pages = o.page_reads + o.page_hits;
            for (what, observed, iv) in [
                ("rows", o.rows_out, nb.rows_total),
                ("pages", pages, nb.data()),
                ("idx", o.index_reads, nb.index()),
                ("writes", o.page_writes, nb.writes()),
            ] {
                if !iv.contains_count(observed) {
                    let _ = write!(out, " !! {what}={observed}∉{iv}");
                }
            }
        }
    }
    out.push('\n');
    for c in op.children() {
        walk(c, depth + 1, breakdown, analysis, ops, out);
    }
}
