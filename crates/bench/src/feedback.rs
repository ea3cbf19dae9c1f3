//! The fixpoint cardinality-feedback harness: closing the loop from
//! observed semi-naive delta curves back into the cost model.
//!
//! The calibration harness (`crate::calibrate`) fits *unit costs* but
//! has to exclude lines whose row estimates drifted beyond
//! [`crate::calibrate`]'s `CARD_DRIFT` — which, before this loop
//! existed, was most of the fixpoint recursive sides: the default
//! estimator guesses one global iteration count and flat per-iteration
//! deltas, while the paper's §3.2 point (Figure 5:
//! `Fix(T,P) = Σᵢ cost(Exp(Tᵢ))`) is that costs ride on per-iteration
//! volumes. This module replays the same corpus, joins each fixpoint's
//! modeled delta curve to the observed one
//! ([`oorq_exec::FixDeltaCurve`], keyed per fixpoint node), fits one
//! [`FixProfile`] per (scenario, temporary) and persists the set as the
//! checked-in `crates/cost/fix_profiles.toml` snapshot — loaded by
//! [`CostParams::calibrated`] and consumed by
//! `CostModel::fix_delta_curve`. `reproduce feedback` prints the figures
//! the golden pins, and fails when the profiles no longer improve on the
//! default estimator.

use std::fmt::Write as _;

use oorq_cost::{CostParams, FixProfile, FixProfiles};
use oorq_lint::{lint_fix_drift, DriftTolerance, ObservedFix, Severity};

use crate::calibrate::{card_within, collect_corpus, PlanSample};
use crate::sections::{median, Args};

/// Fit one [`FixProfile`] per (scenario, temporary) from the corpus's
/// joined modeled-vs-observed fixpoint curves.
///
/// Fitting consumes only the *observed* curve, the default model's
/// base-case row estimate and the chain-depth statistic — never the
/// profiled prediction — so refitting over a corpus sampled under
/// already-fitted profiles reproduces the same profiles (no feedback
/// circularity).
pub(crate) fn fit_profiles(samples: &[PlanSample]) -> FixProfiles {
    let mut out = FixProfiles::empty();
    for s in samples {
        for f in &s.fixes {
            let Some(p) = FixProfile::fit(&f.observed, f.pred_default.base_rows, f.depth) else {
                continue;
            };
            out.insert(format!("{}/{}", s.scenario, f.temp), p);
        }
    }
    out
}

/// Summary statistics of one corpus pass, comparing the default (flat
/// delta) estimator against the profile-informed one.
#[derive(Debug, Clone)]
pub struct FeedbackStats {
    /// Fixpoints joined (modeled and observed curves matched per node).
    pub n_fixes: usize,
    /// Fix rec-side matched lines.
    pub n_rec_lines: usize,
    /// Median relative row-estimate error of Fix rec-side lines under
    /// the default estimator.
    pub rec_err_default: f64,
    /// … and under the profile-informed calibrated model.
    pub rec_err_profiled: f64,
    /// Fix rec-side lines the calibration fit would exclude for
    /// cardinality drift when judged on default-estimator rows.
    pub excluded_default: usize,
    /// … and when judged on profile-informed rows (the basis the fit
    /// actually uses).
    pub excluded_profiled: usize,
    /// CX005/CX006 profile-drift warnings under the profiled model.
    pub drift_warns_profiled: usize,
    /// … and under the default flat-delta model.
    pub drift_warns_default: usize,
}

fn rel_err(pred: f64, obs: f64) -> f64 {
    (pred - obs).abs() / obs.max(1.0)
}

/// Compute the feedback summary over a sampled corpus.
pub(crate) fn feedback_stats(samples: &[PlanSample]) -> FeedbackStats {
    let mut err_default = Vec::new();
    let mut err_profiled = Vec::new();
    let mut excluded_default = 0usize;
    let mut excluded_profiled = 0usize;
    let mut n_rec_lines = 0usize;
    for l in samples.iter().flat_map(|s| &s.lines) {
        if !l.in_fix_rec {
            continue;
        }
        n_rec_lines += 1;
        err_default.push(rel_err(l.pred_rows, l.obs_rows));
        err_profiled.push(rel_err(l.pred_rows_res, l.obs_rows));
        if !card_within(l.pred_rows, l.obs_rows) {
            excluded_default += 1;
        }
        if !card_within(l.pred_rows_res, l.obs_rows) {
            excluded_profiled += 1;
        }
    }
    let (drift_warns_profiled, drift_warns_default) = drift_warnings(samples);
    FeedbackStats {
        n_fixes: samples.iter().map(|s| s.fixes.len()).sum(),
        n_rec_lines,
        rec_err_default: median(err_default),
        rec_err_profiled: median(err_profiled),
        excluded_default,
        excluded_profiled,
        drift_warns_profiled,
        drift_warns_default,
    }
}

/// CX005/CX006 warning counts over the corpus: (profiled curves,
/// default flat-delta curves).
fn drift_warnings(samples: &[PlanSample]) -> (usize, usize) {
    let tol = DriftTolerance::default();
    let mut profiled = 0usize;
    let mut default = 0usize;
    for s in samples {
        let observed: Vec<ObservedFix> = s
            .fixes
            .iter()
            .map(|f| ObservedFix {
                pt_node: f.pt_node,
                temp: f.temp.clone(),
                iterations: (f.observed.len().saturating_sub(1)).max(1) as f64,
                mass: f.observed.iter().map(|&d| d as f64).sum(),
            })
            .collect();
        let warns = |breakdown: Vec<oorq_cost::NodeCost>| {
            lint_fix_drift(&breakdown, &observed, tol)
                .diagnostics
                .iter()
                .filter(|d| d.severity() == Severity::Warn)
                .count()
        };
        profiled += warns(
            s.fixes
                .iter()
                .map(|f| fix_line(f.pt_node, f.pred_res.clone()))
                .collect(),
        );
        default += warns(
            s.fixes
                .iter()
                .map(|f| fix_line(f.pt_node, f.pred_default.clone()))
                .collect(),
        );
    }
    (profiled, default)
}

/// A minimal `Fix` breakdown line carrying a modeled curve, for the
/// drift lint.
fn fix_line(node: usize, curve: oorq_cost::FixCurve) -> oorq_cost::NodeCost {
    oorq_cost::NodeCost {
        label: format!("Fix({})", curve.temp),
        kind: oorq_cost::OpKind::Fix,
        node: Some(node),
        cost: oorq_cost::Cost::zero(),
        feat: oorq_cost::CostFeatures::default(),
        rows: curve.total_rows,
        pages: 0.0,
        fix: Some(curve),
    }
}

fn render_stats(out: &mut String, st: &FeedbackStats) {
    let _ = writeln!(
        out,
        "{} fixpoints joined; {} Fix rec-side matched lines",
        st.n_fixes, st.n_rec_lines
    );
    let _ = writeln!(
        out,
        "Fix rec-side row-estimate median relative error: {:.3} (default) -> {:.3} (profiled) \
         -> {}",
        st.rec_err_default,
        st.rec_err_profiled,
        if st.rec_err_profiled < st.rec_err_default {
            "improved"
        } else {
            "NOT improved"
        }
    );
    let _ = writeln!(
        out,
        "card_ok fit exclusions among Fix rec-side lines: {} (default basis) -> {} \
         (profiled basis) -> {}",
        st.excluded_default,
        st.excluded_profiled,
        if st.excluded_profiled < st.excluded_default {
            "dropped"
        } else {
            "NOT dropped"
        }
    );
    let _ = writeln!(
        out,
        "profile-drift warnings (CX005/CX006): {} under profiled curves, {} under flat-delta \
         default",
        st.drift_warns_profiled, st.drift_warns_default
    );
}

fn render_curve_table(out: &mut String, samples: &[PlanSample]) {
    out.push_str(
        "\n| scenario/temp | observed passes | modeled (default) | modeled (profiled) | \
         observed mass | modeled mass (default) | modeled mass (profiled) |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for s in samples {
        for f in &s.fixes {
            let obs_passes = f.observed.len().saturating_sub(1).max(1);
            let obs_mass: u64 = f.observed.iter().sum();
            let _ = writeln!(
                out,
                "| {}/{} | {} | {:.0} | {:.0} | {} | {:.0} | {:.0} |",
                s.scenario,
                f.temp,
                obs_passes,
                f.pred_default.iterations,
                f.pred_res.iterations,
                obs_mass,
                f.pred_default.mass(),
                f.pred_res.mass(),
            );
        }
    }
}

/// The `reproduce feedback` section: replay the corpus under the
/// checked-in profiles and report modeled-vs-observed delta curves,
/// the Fix rec-side row-error improvement, and the fit-exclusion drop;
/// `Err` when either the error does not improve or the exclusions do not
/// drop.
pub(crate) fn feedback_report(_: &Args) -> Result<String, String> {
    let calibrated = CostParams::calibrated();
    let samples = collect_corpus(&calibrated);
    let st = feedback_stats(&samples);
    let mut out = String::from(
        "=== Cardinality feedback: fixpoint delta profiles ===\n\
         (corpus: music/parts/chain scenarios; observed semi-naive delta curves\n\
         joined per fixpoint node against the modeled curves)\n",
    );
    let _ = writeln!(
        out,
        "checked-in profiles: {} (scenario, temp) entries\n",
        calibrated.fix_profiles.len()
    );
    render_stats(&mut out, &st);
    render_curve_table(&mut out, &samples);
    if st.rec_err_profiled < st.rec_err_default && st.excluded_profiled < st.excluded_default {
        Ok(out)
    } else {
        Err(out)
    }
}

/// The `reproduce feedback-fit` section: re-fit the profiles on the
/// corpus and print the snapshot to check in as
/// `crates/cost/fix_profiles.toml`.
pub(crate) fn feedback_fit_report(_: &Args) -> Result<String, String> {
    // Sample under the *default* feature model: profile fitting only
    // consumes observations and default-model estimates, so the fit
    // must not require an existing snapshot to be loadable.
    let res_params = CostParams {
        residency: true,
        ..CostParams::default()
    };
    let samples = collect_corpus(&res_params);
    let profiles = fit_profiles(&samples);
    let snapshot = profiles.render(
        "Fixpoint cardinality profiles fitted by `reproduce feedback-fit` over\n\
         # the music/parts/chain scenario corpus. Check in as\n\
         # crates/cost/fix_profiles.toml; loaded by CostParams::calibrated().",
    );
    let mut out = String::from("=== Cardinality feedback: profile fit ===\n");
    let _ = writeln!(
        out,
        "fitted {} (scenario, temp) profiles from {} plans\n",
        profiles.len(),
        samples.len()
    );
    let _ = writeln!(out, "--- snapshot (crates/cost/fix_profiles.toml) ---");
    out.push_str(&snapshot);
    Ok(out)
}
