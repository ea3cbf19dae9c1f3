//! The spill calibration harness: does the residency model place the
//! spill cliff where the executor actually falls off it?
//!
//! Every other harness runs under an unbounded breaker budget, where
//! pipeline-breaker temporaries (fixpoint accumulator/delta, the
//! materialized nested-loop inner) stay resident and their re-reads are
//! free. Under `ExecConfig::memory_budget_pages` the buffer manager
//! caps resident breaker pages and LRU-spills the rest, so the same
//! plan's physical page reads jump once the breaker footprint crosses
//! the budget. The cost model mirrors the cliff through
//! `CostParams::memory_budget_pages` (see
//! `CostParams::breaker_frames`): breaker re-reads cost zero while the
//! footprint fits and full page fetches once it does not.
//!
//! This module sweeps a transitive-closure workload
//! ([`oorq_datagen::ClosureDb`] — quadratic accumulator over a linear
//! chain) across the cliff at a fixed budget, executes each point
//! under the budget, feeds the observed delta curve back as a
//! [`FixProfile`] (the same loop as `crate::feedback`, so cardinality
//! error does not masquerade as residency error), re-estimates under
//! the calibrated weights *with* the budget, and compares predicted
//! against observed physical page reads on each side. `reproduce spill`
//! fails when either side's median relative error exceeds the absolute
//! `MAX_SIDE_ERR` cap, or the model mis-places any point relative to
//! the cliff.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use oorq_core::OptimizerConfig;
use oorq_cost::{CostParams, FixProfile};
use oorq_datagen::{ClosureConfig, ClosureDb};
use oorq_lint::{lint_breaker_budget, lint_spill_drift, DriftTolerance};

use crate::scenarios::{Knobs, Scenario};
use crate::sections::{median, Args};

/// The sweep's breaker memory budget, in pages. Small enough that the
/// closure accumulator crosses it mid-sweep (128 closure rows per page
/// at the default 4 KiB page; n·(n−1)/2 rows ≈ the budget near n=46),
/// large enough that the resident side is not degenerate.
pub(crate) const SPILL_BUDGET_PAGES: u64 = 8;

/// Chain sizes swept across the budget cliff: the first half's
/// accumulators fit in [`SPILL_BUDGET_PAGES`], the second half's spill.
const SWEEP: &[u32] = &[16, 24, 32, 40, 56, 72, 96, 128];

/// One sweep point: a closure workload executed under the budget and
/// re-estimated under the calibrated residency model with the same
/// budget.
#[derive(Debug, Clone)]
pub struct SpillPoint {
    /// Chain length (nodes) of the workload.
    pub nodes: u32,
    /// Closure rows produced (sanity: must equal n·(n−1)/2).
    pub rows: u64,
    /// Largest modeled breaker write footprint in the plan, in pages.
    pub footprint_pages: f64,
    /// Model's side of the cliff: footprint exceeds the budget.
    pub pred_spilled: bool,
    /// Executor's side of the cliff: the buffer manager spilled.
    pub obs_spilled: bool,
    /// Predicted physical page reads (read-side features dotted with
    /// the calibrated weights; writes excluded — the checked metric is
    /// reads, where the cliff shows).
    pub pred_reads: f64,
    /// Observed physical page reads (data + index pages).
    pub obs_reads: f64,
    /// Budget-exhaustion evictions the buffer manager recorded.
    pub spill_evictions: u64,
    /// `PX010` warnings from [`lint_breaker_budget`] on the re-estimate.
    pub budget_warns: usize,
    /// `CX007` warnings from [`lint_spill_drift`] against the run.
    pub drift_warns: usize,
}

impl SpillPoint {
    /// Relative page-read error, floored at one page of denominator.
    pub(crate) fn rel_err(&self) -> f64 {
        (self.pred_reads - self.obs_reads).abs() / self.obs_reads.max(1.0)
    }
}

/// Run one closure workload under the budget and join the model's
/// re-estimate against the executor's counters.
fn spill_point(nodes: u32, budget: u64) -> SpillPoint {
    let scope = format!("spill{nodes}");
    let c = ClosureDb::generate(ClosureConfig { nodes });
    let q = c.closure_query();
    let mut s = Scenario::plain(c.db);
    let run = s
        .run(
            &q,
            OptimizerConfig::cost_controlled(),
            &Knobs::resources(budget),
        )
        .unwrap_or_else(|e| panic!("{scope}: {e}"));
    let (plan, report, out) = (&run.optimized, &run.report, &run.answer);

    // Feed the observed delta curve back as the temporary's only profile
    // (the calibrated set has none of the closure's) so the
    // re-estimate's residual error is residency error, not
    // fixpoint-cardinality error.
    let mut res_params = CostParams {
        residency: true,
        memory_budget_pages: budget,
        ..CostParams::calibrated()
    };
    let depth = s
        .model(res_params.clone(), run.temp_fields.clone())
        .fix_iterations();
    let obs_curves: BTreeMap<usize, Vec<u64>> = report
        .fix_deltas
        .iter()
        .map(|f| (f.pt_node, f.deltas.clone()))
        .collect();
    for n in &plan.trace.final_breakdown {
        let (Some(node), Some(curve)) = (n.node, n.fix.as_ref()) else {
            continue;
        };
        let Some(observed) = obs_curves.get(&node) else {
            continue;
        };
        let Some(p) = FixProfile::fit(observed, curve.base_rows, depth) else {
            continue;
        };
        res_params
            .fix_profiles
            .insert(format!("{scope}/{}", curve.temp), p);
    }
    let res_cost = s
        .model(res_params.clone(), run.temp_fields.clone())
        .cost(&plan.pt)
        .unwrap_or_else(|e| panic!("{scope}: re-estimation failed: {e}"));

    let w = &res_params.weights;
    let mut pred_reads = 0.0;
    let mut footprint_pages: f64 = 0.0;
    for l in &res_cost.breakdown {
        pred_reads += l.feat.seq_pages * w.seq_page
            + l.feat.deref_pages * w.deref_page
            + l.feat.index_level_ios * w.index_level
            + l.feat.index_leaf_ios * w.index_leaf;
        footprint_pages = footprint_pages.max(l.feat.write_pages);
    }

    let budget_warns = lint_breaker_budget(&res_cost.breakdown, budget)
        .diagnostics
        .len();
    let drift_warns = lint_spill_drift(
        &res_cost.breakdown,
        budget,
        report.io.spill_evictions as f64,
        DriftTolerance::default(),
    )
    .diagnostics
    .len();

    let n = nodes as u64;
    let expected = n * (n - 1) / 2;
    assert_eq!(
        out.rows.len() as u64,
        expected,
        "{scope}: closure produced {} rows, expected {expected}",
        out.rows.len()
    );

    SpillPoint {
        nodes,
        rows: out.rows.len() as u64,
        footprint_pages,
        pred_spilled: footprint_pages > budget as f64,
        obs_spilled: report.io.spill_evictions > 0,
        pred_reads,
        obs_reads: (report.io.page_reads + report.io.index_reads) as f64,
        spill_evictions: report.io.spill_evictions,
        budget_warns,
        drift_warns,
    }
}

/// Sweep every `SWEEP` size at the given budget.
pub(crate) fn spill_sweep(budget: u64) -> Vec<SpillPoint> {
    SWEEP.iter().map(|&n| spill_point(n, budget)).collect()
}

/// Per-side medians of a sweep, split by the *observed* cliff side.
pub struct SpillStats {
    /// Points whose run stayed resident / spilled.
    pub n_resident: usize,
    /// See [`SpillStats::n_resident`].
    pub n_spilled: usize,
    /// Median relative page-read error over the resident side.
    pub resident_med_err: f64,
    /// Median relative page-read error over the spilled side.
    pub spilled_med_err: f64,
    /// Points where the model's cliff side disagrees with the run's.
    pub misplaced: usize,
}

/// Split a sweep by observed side and take per-side error medians.
pub(crate) fn spill_stats(points: &[SpillPoint]) -> SpillStats {
    let (spilled, resident): (Vec<_>, Vec<_>) = points.iter().partition(|p| p.obs_spilled);
    SpillStats {
        n_resident: resident.len(),
        n_spilled: spilled.len(),
        resident_med_err: median(resident.iter().map(|p| p.rel_err()).collect()),
        spilled_med_err: median(spilled.iter().map(|p| p.rel_err()).collect()),
        misplaced: points
            .iter()
            .filter(|p| p.pred_spilled != p.obs_spilled)
            .count(),
    }
}

fn render_sweep(out: &mut String, points: &[SpillPoint], budget: u64) {
    let _ = writeln!(
        out,
        "transitive closure over a linear chain, breaker budget {budget} pages"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>10} {:>6} {:>6} {:>10} {:>10} {:>8} {:>7} {:>6} {:>6}",
        "nodes",
        "rows",
        "footprint",
        "pred",
        "obs",
        "pred_rd",
        "obs_rd",
        "rel_err",
        "spills",
        "PX010",
        "CX007"
    );
    for p in points {
        let side = |s: bool| if s { "spill" } else { "fit" };
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>10.1} {:>6} {:>6} {:>10.1} {:>10.1} {:>8.3} {:>7} {:>6} {:>6}",
            p.nodes,
            p.rows,
            p.footprint_pages,
            side(p.pred_spilled),
            side(p.obs_spilled),
            p.pred_reads,
            p.obs_reads,
            p.rel_err(),
            p.spill_evictions,
            p.budget_warns,
            p.drift_warns,
        );
    }
}

fn render_stats(out: &mut String, st: &SpillStats) {
    let _ = writeln!(
        out,
        "resident side: {} points, median relative page-read error {:.3}",
        st.n_resident, st.resident_med_err
    );
    let _ = writeln!(
        out,
        "spilled side:  {} points, median relative page-read error {:.3}",
        st.n_spilled, st.spilled_med_err
    );
    let _ = writeln!(out, "cliff-side mispredictions: {}", st.misplaced);
}

/// Hard cap on either side's median relative page-read error — the
/// reproduction target the residency model must hold.
pub(crate) const MAX_SIDE_ERR: f64 = 0.15;

/// The `reproduce spill` section: sweep, table, per-side medians; `Err`
/// when the sweep does not cross the cliff, the model places a point on
/// the wrong side of it, either side's median page-read error exceeds
/// [`MAX_SIDE_ERR`], or `CX007` fires.
pub(crate) fn spill_report(args: &Args) -> Result<String, String> {
    let budget = match args.memory_budget {
        0 => SPILL_BUDGET_PAGES,
        b => b,
    };
    let mut out = String::from("=== Spill calibration: predicted vs observed page reads ===\n");
    let points = spill_sweep(budget);
    let st = spill_stats(&points);
    render_sweep(&mut out, &points, budget);
    render_stats(&mut out, &st);

    let mut failures = Vec::new();
    if st.n_resident == 0 || st.n_spilled == 0 {
        failures.push(format!(
            "sweep does not cross the cliff ({} resident / {} spilled points)",
            st.n_resident, st.n_spilled
        ));
    }
    if st.misplaced > 0 {
        failures.push(format!(
            "model places {} point(s) on the wrong side of the spill cliff",
            st.misplaced
        ));
    }
    for (side, err) in [
        ("resident", st.resident_med_err),
        ("spilled", st.spilled_med_err),
    ] {
        if err > MAX_SIDE_ERR {
            failures.push(format!(
                "{side}-side median page-read error {err:.3} exceeds the {MAX_SIDE_ERR:.2} cap"
            ));
        }
    }
    let drift: usize = points.iter().map(|p| p.drift_warns).sum();
    if drift > 0 {
        failures.push(format!(
            "CX007 spill-drift fired on {drift} point(s): modeled cliff side disagrees with \
             observed spill evictions"
        ));
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}\n{}", failures.join("\n")))
    }
}
