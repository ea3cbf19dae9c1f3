//! The cost-model calibration harness.
//!
//! Runs the music / parts / chain scenario corpus across seeded sizes
//! under both recursion strategies, joins the optimizer's per-node cost
//! breakdown against the executor's observed per-operator counters (on
//! the shared PT pre-order node index), and fits the calibratable
//! [`CostWeights`] by deterministic weighted least squares
//! ([`CostWeights::fit`]).
//!
//! Because every per-node estimate is a feature vector
//! ([`CostFeatures`]) dotted with the weights, fitting never re-runs
//! the estimator: the residual pairs collected once serve both the fit
//! and the before/after evaluation. The fitted parameters are persisted
//! as the checked-in `crates/cost/calibrated.toml` snapshot (loaded by
//! [`CostParams::calibrated`]). `reproduce calibrate` prints the
//! per-kind errors the golden pins, and fails when the snapshot no longer
//! lowers the overall median error below the identity weights'.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use oorq_core::OptimizerConfig;
use oorq_cost::{Cost, CostFeatures, CostParams, CostWeights, FixCurve, NodeCost, OpKind};
use oorq_lint::{lint_drift, DriftTolerance, ObservedOp, Severity};
use oorq_query::QueryGraph;

use crate::scenarios::{for_each_row, Knobs, Scenario};
use crate::sections::{median, Args};

/// Reference weighting for the scalar error metric: one page access
/// (`pr`) and one evaluation (`ev`), fixed so "relative error" means
/// the same thing whichever parameters are being judged.
pub const REF_PR: f64 = 1.0;
/// See [`REF_PR`].
pub const REF_EV: f64 = 0.05;

/// One matched (predicted, observed) operator of one executed plan.
#[derive(Debug, Clone)]
pub struct SampleLine {
    /// Pre-order PT node index within the plan.
    pub pt_node: usize,
    /// Operator kind (report grouping key).
    pub kind: OpKind,
    /// Operator label.
    pub label: String,
    /// The estimator's feature vector for this node under the
    /// *uncalibrated* parameters ([`CostParams::default`]; already
    /// scaled by fixpoint iterations on recursive sides).
    pub feat: CostFeatures,
    /// The feature vector under the *calibrated feature model* (the
    /// residency-enabled parameters the fitted weights apply to).
    pub feat_res: CostFeatures,
    /// Predicted output rows under the *uncalibrated* parameters.
    pub pred_rows: f64,
    /// Predicted output rows under the calibrated feature model
    /// (residency + fitted fixpoint profiles) — the estimate whose
    /// cardinality quality gates fit eligibility (see `card_ok`).
    pub pred_rows_res: f64,
    /// True when this line sits on the recursive side of a fixpoint
    /// (or is the fixpoint node itself) — the lines whose row estimates
    /// the cardinality-feedback loop is meant to repair.
    pub in_fix_rec: bool,
    /// Observed page accesses (reads + index node reads + writes).
    pub obs_io: f64,
    /// Observed evaluations (predicate evals + method calls).
    pub obs_cpu: f64,
    /// Observed output rows.
    pub obs_rows: f64,
}

impl SampleLine {
    /// Relative error, in reference pr/ev units, of the scalar cost the
    /// given feature vector predicts under the given weights.
    fn rel_err_of(&self, feat: &CostFeatures, w: &CostWeights) -> f64 {
        let predicted = feat.io(w) * REF_PR + feat.cpu(w) * REF_EV;
        let observed = self.obs_io * REF_PR + self.obs_cpu * REF_EV;
        (predicted - observed).abs() / observed.max(1.0)
    }

    /// Relative error of the uncalibrated prediction under the given
    /// weights.
    pub fn rel_err(&self, w: &CostWeights) -> f64 {
        self.rel_err_of(&self.feat, w)
    }

    /// Relative error of the calibrated-feature-model prediction under
    /// the given weights.
    pub fn rel_err_res(&self, w: &CostWeights) -> f64 {
        self.rel_err_of(&self.feat_res, w)
    }
}

/// One fixpoint of one executed plan: the modeled delta curves (under
/// both parameter sets) joined to the observed curve — the raw material
/// of the cardinality-feedback fit (`crate::feedback`).
#[derive(Debug, Clone)]
pub struct FixSample {
    /// The fixpoint's temporary.
    pub temp: String,
    /// Pre-order PT node index of the `Fix` node.
    pub pt_node: usize,
    /// The curve the *uncalibrated* estimator modeled (flat deltas).
    pub pred_default: FixCurve,
    /// The curve the calibrated feature model (profiles attached, when
    /// fitted) modeled.
    pub pred_res: FixCurve,
    /// The observed delta curve (seed first, final 0 on convergence).
    pub observed: Vec<u64>,
    /// The chain-depth statistic the estimator consulted (for
    /// fitting `iters_per_depth`).
    pub depth: f64,
}

/// Every matched operator of one optimized-and-executed plan.
#[derive(Debug, Clone)]
pub struct PlanSample {
    /// Scenario / query / strategy tag.
    pub scenario: String,
    /// Matched per-operator lines.
    pub lines: Vec<SampleLine>,
    /// Per-fixpoint modeled-vs-observed delta curves.
    pub fixes: Vec<FixSample>,
}

impl PlanSample {
    /// The drift-lint view of this sample under the given weights:
    /// re-priced breakdown lines against the recorded observations.
    /// `res` selects the calibrated feature model.
    fn drift_report(
        &self,
        w: &CostWeights,
        res: bool,
        tol: DriftTolerance,
    ) -> oorq_lint::LintReport {
        let breakdown: Vec<NodeCost> = self
            .lines
            .iter()
            .map(|l| {
                let feat = if res { l.feat_res } else { l.feat };
                NodeCost {
                    label: l.label.clone(),
                    kind: l.kind,
                    node: Some(l.pt_node),
                    cost: Cost::new(feat.io(w), feat.cpu(w)),
                    feat,
                    rows: l.pred_rows,
                    pages: 0.0,
                    fix: None,
                }
            })
            .collect();
        let observed: Vec<ObservedOp> = self
            .lines
            .iter()
            .map(|l| ObservedOp {
                pt_node: l.pt_node,
                label: l.label.clone(),
                io: l.obs_io,
                cpu: l.obs_cpu,
                rows: l.obs_rows,
            })
            .collect();
        lint_drift(&breakdown, &observed, tol)
    }
}

/// Optimize (under [`CostParams::default`]), execute cold-cache, and
/// join predicted against observed per-operator. The final plan is
/// additionally re-estimated under `res_params` (the calibrated feature
/// model, typically residency-enabled) so every matched line carries
/// both feature vectors.
fn sample_plan(
    s: &mut Scenario,
    q: &QueryGraph,
    config: OptimizerConfig,
    res_params: &CostParams,
    scenario: &str,
) -> Result<PlanSample, String> {
    let run = s.run(q, config, &Knobs::default())?;
    let (plan, report) = (&run.optimized, &run.report);
    // Re-estimate the chosen plan under the calibrated feature model,
    // with every temporary the optimizer registered.
    let res_model = s.model(
        CostParams {
            // The harness knows which scenario this plan came from, so the
            // re-estimate may use the exact (scenario, temp) profile rather
            // than the cross-scenario aggregate.
            profile_scope: scenario.to_string(),
            ..res_params.clone()
        },
        run.temp_fields.clone(),
    );
    let depth = res_model.fix_iterations();
    let res_cost = res_model
        .cost(&plan.pt)
        .map_err(|e| format!("re-estimation failed: {e}"))?;
    let res_feat: BTreeMap<usize, (CostFeatures, f64)> = res_cost
        .breakdown
        .iter()
        .filter_map(|n| Some((n.node?, (n.feat, n.rows))))
        .collect();
    let rec_nodes = oorq_pt::fix_recursive_nodes(&plan.pt);

    // Observed totals per PT node (re-instantiated operators sum).
    let mut obs: BTreeMap<usize, (f64, f64, f64)> = BTreeMap::new();
    for op in &report.ops {
        let e = obs.entry(op.pt_node).or_insert((0.0, 0.0, 0.0));
        e.0 += (op.page_reads + op.index_reads + op.page_writes) as f64;
        e.1 += (op.evals + op.method_calls) as f64;
        e.2 += op.rows_out as f64;
    }
    // Twin operators (same kind and label — e.g. the same class scanned
    // in two branches) are merged: the executor's buffer pool attributes
    // their shared cold reads to whichever twin happens to run first,
    // an ordering the model deliberately does not predict. Their *sum*
    // is well-defined on both sides, so the merged line is the one fair
    // to fit and judge against.
    let mut lines: Vec<SampleLine> = Vec::new();
    let mut by_key: BTreeMap<(OpKind, String), usize> = BTreeMap::new();
    for n in &plan.trace.final_breakdown {
        let Some(node) = n.node else { continue };
        let Some(&(obs_io, obs_cpu, obs_rows)) = obs.get(&node) else {
            continue;
        };
        let (feat_res, rows_res) = res_feat.get(&node).copied().unwrap_or((n.feat, n.rows));
        match by_key.entry((n.kind, n.label.clone())) {
            std::collections::btree_map::Entry::Occupied(e) => {
                let l = &mut lines[*e.get()];
                l.feat += n.feat;
                l.feat_res += feat_res;
                l.pred_rows += n.rows;
                l.pred_rows_res += rows_res;
                l.in_fix_rec |= rec_nodes.contains(&node);
                l.obs_io += obs_io;
                l.obs_cpu += obs_cpu;
                l.obs_rows += obs_rows;
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(lines.len());
                lines.push(SampleLine {
                    pt_node: node,
                    kind: n.kind,
                    label: n.label.clone(),
                    feat: n.feat,
                    feat_res,
                    pred_rows: n.rows,
                    pred_rows_res: rows_res,
                    in_fix_rec: rec_nodes.contains(&node),
                    obs_io,
                    obs_cpu,
                    obs_rows,
                });
            }
        }
    }

    // Join each fixpoint's modeled delta curves (default and
    // calibrated) to its observed one, on the shared PT node index.
    let res_fix: BTreeMap<usize, FixCurve> = res_cost
        .breakdown
        .iter()
        .filter_map(|n| Some((n.node?, n.fix.clone()?)))
        .collect();
    let mut fixes = Vec::new();
    for n in &plan.trace.final_breakdown {
        let (Some(node), Some(pred_default)) = (n.node, n.fix.clone()) else {
            continue;
        };
        let Some(observed) = report
            .fix_deltas
            .iter()
            .find(|c| c.pt_node == node)
            .map(|c| c.deltas.clone())
        else {
            continue;
        };
        let pred_res = res_fix
            .get(&node)
            .cloned()
            .unwrap_or_else(|| pred_default.clone());
        fixes.push(FixSample {
            temp: pred_default.temp.clone(),
            pt_node: node,
            pred_default,
            pred_res,
            observed,
            depth,
        });
    }
    Ok(PlanSample {
        scenario: scenario.to_string(),
        lines,
        fixes,
    })
}

/// Run the calibration rows of the corpus (`Entry::calibration`): the
/// music scenarios (recursive `Influencer` chains, path + selection
/// indexes), the parts scenarios (recursive bill-of-materials with a
/// computed attribute) and the chain scenarios (non-recursive
/// multi-joins), recursive queries under both the never-push and
/// always-push strategies. `res_params` is the calibrated feature model
/// every plan is re-estimated under (see [`SampleLine::feat_res`]).
pub fn collect_corpus(res_params: &CostParams) -> Vec<PlanSample> {
    let mut samples = Vec::new();
    for_each_row(
        |entry, _| entry.calibration,
        |name, s, q, config| {
            samples.push(sample_plan(s, q, config, res_params, name)?);
            Ok(())
        },
    )
    .unwrap_or_else(|e: String| panic!("calibration corpus: {e}"));
    samples
}

/// Cardinality-drift bound for fit eligibility. The weights correct
/// *unit-cost* drift (cost per page, per probe, per evaluation); a line
/// whose own row estimate is off by more than this factor has a
/// residual dominated by cardinality mis-estimation (e.g. recursive
/// deltas inside a fixpoint) and would teach the fit wrong unit costs.
/// Such lines are excluded from the normal equations but still scored
/// by the error tables.
const CARD_DRIFT: f64 = 2.0;

/// Whether a row prediction is within `CARD_DRIFT` of the
/// observation.
pub fn card_within(pred: f64, obs: f64) -> bool {
    let p = pred.max(1.0);
    let o = obs.max(1.0);
    p <= o * CARD_DRIFT && o <= p * CARD_DRIFT
}

/// Whether a line's own cardinality estimate is close enough to the
/// observation for its cost residual to reflect unit costs. Judged
/// under the calibrated feature model's rows ([`SampleLine::
/// pred_rows_res`]) — the estimate the fitted weights actually ride on,
/// and the one the fixpoint profiles repair for rec-side lines.
fn card_ok(l: &SampleLine) -> bool {
    card_within(l.pred_rows_res, l.obs_rows)
}

/// Fit the component weights to the corpus ([`CostWeights::fit`]) over
/// the calibrated feature model ([`SampleLine::feat_res`]) — the weights
/// it produces are the ones [`CostParams::calibrated`] applies. Only
/// matched operators whose own row estimate held (see `card_ok`)
/// contribute equations.
pub fn fit_weights(samples: &[PlanSample]) -> CostWeights {
    let equations: Vec<(CostFeatures, f64, f64)> = samples
        .iter()
        .flat_map(|s| &s.lines)
        .filter(|l| card_ok(l))
        .map(|l| (l.feat_res, l.obs_io, l.obs_cpu))
        .collect();
    CostWeights::fit(&equations)
}

/// One row of the per-operator-kind error table.
#[derive(Debug, Clone)]
pub struct KindRow {
    /// Operator kind.
    pub kind: OpKind,
    /// Matched operators of this kind in the corpus.
    pub n: usize,
    /// Median relative error under the first (baseline) weights.
    pub med_a: f64,
    /// Median relative error under the second (candidate) weights.
    pub med_b: f64,
}

/// Per-kind and overall median relative error of the uncalibrated
/// prediction (identity features, `wa`) against the calibrated one
/// (residency features, `wb`).
pub fn kind_medians(
    samples: &[PlanSample],
    wa: &CostWeights,
    wb: &CostWeights,
) -> (Vec<KindRow>, f64, f64) {
    let mut per_kind: BTreeMap<OpKind, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut all_a = Vec::new();
    let mut all_b = Vec::new();
    for l in samples.iter().flat_map(|s| &s.lines) {
        let (ea, eb) = (l.rel_err(wa), l.rel_err_res(wb));
        let e = per_kind.entry(l.kind).or_default();
        e.0.push(ea);
        e.1.push(eb);
        all_a.push(ea);
        all_b.push(eb);
    }
    let rows = per_kind
        .into_iter()
        .map(|(kind, (a, b))| KindRow {
            kind,
            n: a.len(),
            med_a: median(a),
            med_b: median(b),
        })
        .collect();
    (rows, median(all_a), median(all_b))
}

/// Total drift-lint warnings (CX001–CX003) over the corpus under the
/// given weights.
pub fn drift_warnings(samples: &[PlanSample], w: &CostWeights, res: bool) -> usize {
    samples
        .iter()
        .map(|s| {
            s.drift_report(w, res, DriftTolerance::default())
                .diagnostics
                .iter()
                .filter(|d| d.severity() == Severity::Warn)
                .count()
        })
        .sum()
}

/// The `reproduce calibrate` section: per-operator-kind relative-error
/// tables before (identity weights) and after (the checked-in fitted
/// snapshot), plus drift-lint counts; `Err` when the snapshot does not
/// lower the overall median error.
pub fn calibrate_report(_: &Args) -> Result<String, String> {
    let calibrated = CostParams::calibrated();
    let samples = collect_corpus(&calibrated);
    let default = CostParams::default();
    match render_comparison(&samples, &default.weights, &calibrated.weights) {
        (out, true) => Ok(out),
        (out, false) => Err(out),
    }
}

/// The error tables of `wa` against `wb`, and whether `wb` lowers the
/// overall median.
fn render_comparison(samples: &[PlanSample], wa: &CostWeights, wb: &CostWeights) -> (String, bool) {
    let (rows, overall_a, overall_b) = kind_medians(samples, wa, wb);
    let improved = overall_b < overall_a;
    let n_lines: usize = samples.iter().map(|s| s.lines.len()).sum();
    let mut out = String::from(
        "=== Calibration: per-operator-kind median relative error ===\n\
         (corpus: music/parts/chain scenarios, both strategies, seeded sizes;\n\
         error = |predicted - observed| / max(observed, 1) in pr/ev units)\n",
    );
    let _ = writeln!(
        out,
        "{} plans, {} matched operators\n",
        samples.len(),
        n_lines
    );
    out.push_str("| kind | n | default | calibrated | change |\n|---|---|---|---|---|\n");
    for r in &rows {
        let change = if r.med_b < r.med_a - 1e-9 {
            "improved"
        } else if r.med_b > r.med_a + 1e-9 {
            "worse"
        } else {
            "="
        };
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {:.3} | {} |",
            r.kind.name(),
            r.n,
            r.med_a,
            r.med_b,
            change
        );
    }
    let _ = writeln!(
        out,
        "| **overall** | {} | **{:.3}** | **{:.3}** | {} |",
        n_lines,
        overall_a,
        overall_b,
        if improved { "improved" } else { "NOT improved" }
    );
    let _ = writeln!(
        out,
        "\ndrift-lint warnings (CX001-CX003): {} under default weights, {} under calibrated",
        drift_warnings(samples, wa, false),
        drift_warnings(samples, wb, true),
    );
    let _ = writeln!(
        out,
        "\ncalibrated weights: seq_page={:.3} deref_page={:.3} index_level={:.3} \
         index_leaf={:.3} write_page={:.3} eval={:.3} method={:.3}",
        wb.seq_page,
        wb.deref_page,
        wb.index_level,
        wb.index_leaf,
        wb.write_page,
        wb.eval,
        wb.method
    );
    (out, improved)
}

/// The `reproduce calibrate-fit` section: re-fit the weights on the
/// corpus and print the snapshot to check in as
/// `crates/cost/calibrated.toml`.
pub fn calibrate_fit_report(_: &Args) -> Result<String, String> {
    // The feature model the weights are fitted for: residency on, and
    // the checked-in fixpoint profiles attached (the profile fit —
    // `reproduce feedback-fit` — precedes the weight fit).
    let res_params = CostParams {
        residency: true,
        ..CostParams::calibrated()
    };
    let samples = collect_corpus(&res_params);
    let w = fit_weights(&samples);
    let p = CostParams {
        weights: w,
        ..res_params
    };
    let snapshot = p.render_snapshot(
        "Calibration snapshot fitted by `reproduce calibrate-fit` over the\n\
         # music/parts/chain scenario corpus. Check in as\n\
         # crates/cost/calibrated.toml; loaded by CostParams::calibrated().",
    );
    let (mut out, _) = render_comparison(&samples, &CostParams::default().weights, &w);
    let _ = writeln!(out, "\n--- snapshot (crates/cost/calibrated.toml) ---");
    out.push_str(&snapshot);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_line(feat: CostFeatures, w: &CostWeights, rows: f64) -> SampleLine {
        SampleLine {
            pt_node: 0,
            kind: OpKind::Scan,
            label: "synthetic".into(),
            feat,
            feat_res: feat,
            pred_rows: rows,
            pred_rows_res: rows,
            in_fix_rec: false,
            obs_io: feat.io(w),
            obs_cpu: feat.cpu(w),
            obs_rows: rows,
        }
    }

    /// Lines whose own cardinality estimate drifted beyond
    /// [`CARD_DRIFT`] do not contaminate the unit-cost fit.
    #[test]
    fn cardinality_drifted_lines_are_excluded_from_fit() {
        let truth = CostWeights::default();
        let clean = CostFeatures {
            seq_pages: 10.0,
            ..CostFeatures::default()
        };
        let mut lines: Vec<SampleLine> = (0..16)
            .map(|_| synthetic_line(clean, &truth, 10.0))
            .collect();
        // A contradictory line (predicts 40 pages, observes none) whose
        // row estimate is off 10x: cardinality error, not unit cost.
        let mut bad = synthetic_line(
            CostFeatures {
                seq_pages: 40.0,
                ..CostFeatures::default()
            },
            &truth,
            100.0,
        );
        bad.obs_io = 0.0;
        bad.obs_rows = 10.0;
        assert!(!card_ok(&bad));
        lines.push(bad);
        let samples = vec![PlanSample {
            scenario: "synthetic".into(),
            lines,
            fixes: Vec::new(),
        }];
        let w = fit_weights(&samples);
        assert!(
            (w.seq_page - 1.0).abs() < 0.01,
            "seq_page {} dragged by a cardinality-drifted line",
            w.seq_page
        );
    }

    /// Deliberately mis-weighted parameters make the drift lints
    /// (CX001/CX002) fire on an optimized-and-executed plan where the
    /// calibrated weights stay quiet.
    #[test]
    fn drift_lints_fire_on_misweighted_params() {
        let mut s = Scenario::music(oorq_datagen::MusicConfig {
            chains: 3,
            chain_len: 3,
            works_per_composer: 1,
            instruments_per_work: 2,
            instrument_pool: 12,
            harpsichord_fraction: 0.25,
            clustered: false,
            buffer_frames: 32,
            seed: 7,
        });
        let q = s.fig3_gen(2);
        let sample = sample_plan(
            &mut s,
            &q,
            OptimizerConfig::never_push(),
            &CostParams::calibrated(),
            "test/music",
        )
        .expect("plan samples");
        let tol = DriftTolerance::default();
        let calibrated = sample.drift_report(&CostParams::calibrated().weights, true, tol);
        let misweighted = CostWeights {
            seq_page: 20.0,
            deref_page: 20.0,
            index_level: 20.0,
            index_leaf: 20.0,
            write_page: 20.0,
            eval: 20.0,
            method: 20.0,
        };
        let bad = sample.drift_report(&misweighted, true, tol);
        let warns = |r: &oorq_lint::LintReport| {
            r.diagnostics
                .iter()
                .filter(|d| d.severity() == Severity::Warn)
                .count()
        };
        assert!(
            bad.codes().contains("CX001") || bad.codes().contains("CX002"),
            "20x weights must trip the drift lints, got {:?}",
            bad.codes()
        );
        assert!(
            warns(&bad) > warns(&calibrated),
            "mis-weighted params must drift more than the snapshot \
             ({} vs {})",
            warns(&bad),
            warns(&calibrated)
        );
    }
}
